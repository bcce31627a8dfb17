#include "base/parse.hpp"

#include <charconv>
#include <cmath>

namespace wavehpc::base {

std::optional<std::uint64_t> parse_u64(std::string_view text) noexcept {
    if (text.empty()) return std::nullopt;
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    std::uint64_t v = 0;
    for (const char c : text) {
        if (c < '0' || c > '9') return std::nullopt;
        const auto d = static_cast<std::uint64_t>(c - '0');
        if (v > (kMax - d) / 10) return std::nullopt;  // v*10 + d must fit
        v = v * 10 + d;
    }
    return v;
}

std::optional<double> parse_f64(std::string_view text) noexcept {
    const char* const end = text.data() + text.size();
    double v = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), end, v, std::chars_format::general);
    if (ec != std::errc{} || ptr != end || !std::isfinite(v)) return std::nullopt;
    return v;
}

}  // namespace wavehpc::base
