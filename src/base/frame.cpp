#include "base/frame.hpp"

#include "base/crc32.hpp"
#include "base/le_bytes.hpp"

namespace wavehpc::base {

namespace {

/// CRC over everything the header protects: seq bytes, then the payload.
std::uint32_t frame_crc(std::span<const std::byte> frame) noexcept {
    const std::uint32_t seq_crc = crc32(frame.subspan(4, 4));
    return crc32(frame.subspan(kFrameHeaderBytes), seq_crc);
}

}  // namespace

std::vector<std::byte> build_frame(std::uint32_t seq,
                                   std::span<const std::byte> data) {
    std::vector<std::byte> frame;
    frame.reserve(kFrameHeaderBytes + data.size());
    frame.resize(kFrameHeaderBytes);
    frame.insert(frame.end(), data.begin(), data.end());
    put_u32(frame.data(), kFrameMagic);
    put_u32(frame.data() + 4, seq);
    put_u32(frame.data() + 8, frame_crc(frame));
    return frame;
}

bool frame_valid(std::span<const std::byte> frame) noexcept {
    if (frame.size() < kFrameHeaderBytes) return false;
    if (get_u32(frame.data()) != kFrameMagic) return false;
    return get_u32(frame.data() + 8) == frame_crc(frame);
}

}  // namespace wavehpc::base
