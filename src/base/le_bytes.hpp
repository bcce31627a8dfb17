#pragma once
// Little-endian u32 load/store on unaligned byte pointers. The shift/or
// form is byte-order independent and compiles to one plain load or store
// on a little-endian host.

#include <cstddef>
#include <cstdint>

namespace wavehpc::base {

inline void put_u32(std::byte* dst, std::uint32_t v) noexcept {
    for (int i = 0; i < 4; ++i) {
        dst[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFFU);
    }
}

[[nodiscard]] inline std::uint32_t get_u32(const std::byte* src) noexcept {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
        v |= static_cast<std::uint32_t>(src[i]) << (8 * i);
    }
    return v;
}

}  // namespace wavehpc::base
