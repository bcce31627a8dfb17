#include "base/crc32.hpp"

#include <array>

#include "base/le_bytes.hpp"

namespace wavehpc::base {

namespace {

// kTable[0] is the classic bytewise (Sarwate) table; kTable[k][b] is the
// CRC of byte b followed by k zero bytes, so one step folds 8 input bytes
// with 8 independent lookups.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables make_tables() {
    Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k) {
            c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
        }
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k) {
        for (std::size_t i = 0; i < 256; ++i) {
            const std::uint32_t prev = t[k - 1][i];
            t[k][i] = t[0][prev & 0xFFU] ^ (prev >> 8);
        }
    }
    return t;
}

constexpr Tables kTable = make_tables();

}  // namespace

std::uint32_t crc32(std::span<const std::byte> data, std::uint32_t seed) noexcept {
    std::uint32_t c = seed ^ 0xFFFFFFFFU;
    const std::byte* p = data.data();
    std::size_t n = data.size();
    for (; n >= 8; p += 8, n -= 8) {
        const std::uint32_t lo = get_u32(p) ^ c;
        const std::uint32_t hi = get_u32(p + 4);
        c = kTable[7][lo & 0xFFU] ^ kTable[6][(lo >> 8) & 0xFFU] ^
            kTable[5][(lo >> 16) & 0xFFU] ^ kTable[4][lo >> 24] ^
            kTable[3][hi & 0xFFU] ^ kTable[2][(hi >> 8) & 0xFFU] ^
            kTable[1][(hi >> 16) & 0xFFU] ^ kTable[0][hi >> 24];
    }
    for (; n > 0; ++p, --n) {
        c = kTable[0][(c ^ static_cast<std::uint32_t>(*p)) & 0xFFU] ^ (c >> 8);
    }
    return c ^ 0xFFFFFFFFU;
}

}  // namespace wavehpc::base
