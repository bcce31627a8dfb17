#pragma once
// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320): the one checksum
// behind the NIC frame CRC, the shard wire payload CRC and the pyramid
// result CRC (DESIGN.md §16).

#include <cstddef>
#include <cstdint>
#include <span>

namespace wavehpc::base {

/// CRC-32 over a byte span; `seed` chains multi-span checksums:
/// crc32(b, crc32(a)) == crc32(a ++ b). Slicing-by-8: eight table lookups
/// per 8-byte step, any alignment, any host byte order.
[[nodiscard]] std::uint32_t crc32(std::span<const std::byte> data,
                                  std::uint32_t seed = 0) noexcept;

}  // namespace wavehpc::base
