#pragma once
// The NIC frame both reliable transports put on the wire — the simulated
// mesh machine (mesh/machine.cpp) and the live shard transport
// (svc/shard/transport.cpp):
//
//   magic u32 'WHRC' | seq u32 | crc u32 | payload
//
// all little-endian; the CRC covers the seq bytes chained with the payload
// (the CRC slot itself is excluded).

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace wavehpc::base {

constexpr std::uint32_t kFrameMagic = 0x57485243U;  // "WHRC"
constexpr std::size_t kFrameHeaderBytes = 12;       // magic + seq + crc

/// Header + a copy of `data`, CRC written last, after what it protects.
[[nodiscard]] std::vector<std::byte> build_frame(std::uint32_t seq,
                                                 std::span<const std::byte> data);

/// The receiving NIC's check: long enough, right magic, CRC matches.
[[nodiscard]] bool frame_valid(std::span<const std::byte> frame) noexcept;

/// The payload a valid frame carries (a view into `frame`).
[[nodiscard]] inline std::span<const std::byte> frame_payload(
    std::span<const std::byte> frame) noexcept {
    return frame.subspan(kFrameHeaderBytes);
}

}  // namespace wavehpc::base
