#pragma once
// The seeded 64-bit mix behind every reproducible number in wavehpc: the
// golden scenes, fault and chaos draws, ring placement, roster hashes,
// synthetic tiles and content digests. Header-only and constexpr so the
// per-pixel (tile::SyntheticTileSource) and per-word (svc::content_digest)
// callers inline it.

#include <cstdint>

namespace wavehpc::base {

/// Weyl increment of splitmix64 (2^64 / golden ratio).
inline constexpr std::uint64_t kSplitMixGamma = 0x9E3779B97F4A7C15ULL;

/// The bare splitmix64 finalizer: full avalanche, no increment.
[[nodiscard]] constexpr std::uint64_t fmix64(std::uint64_t z) noexcept {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/// Stateless splitmix64: the first output of SplitMix64(x).
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
    return fmix64(x + kSplitMixGamma);
}

/// Uniform double in [0, 1) from the top 53 bits of `x`.
[[nodiscard]] constexpr double u01(std::uint64_t x) noexcept {
    return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/// Stateful SplitMix64: tiny state, full period, any seed (0 included).
class SplitMix64 {
public:
    constexpr explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

    constexpr std::uint64_t next() noexcept {
        state_ += kSplitMixGamma;
        return fmix64(state_);
    }

    /// Uniform double in [0, 1).
    constexpr double uniform() noexcept { return u01(next()); }

    /// Uniform integer in [0, n); n must be > 0. The modulo bias is
    /// negligible for the small ranges the callers draw.
    constexpr std::uint64_t below(std::uint64_t n) noexcept { return next() % n; }

    /// Uniform double in [lo, hi).
    constexpr double range(double lo, double hi) noexcept {
        return lo + (hi - lo) * uniform();
    }

private:
    std::uint64_t state_;
};

}  // namespace wavehpc::base
