#include "tile/source.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "base/mix.hpp"

namespace wavehpc::tile {

namespace {

// Same mixer as core::synthetic's generators, but its own lattice keys:
// determinism only has to hold against *this* source, not fbm_field.
[[nodiscard]] float hash01(std::uint64_t seed, std::uint64_t gx,
                           std::uint64_t gy) noexcept {
    const std::uint64_t h = base::splitmix64(seed ^ (gx * 0x9e3779b97f4a7c15ULL) ^
                                             (gy * 0xc2b2ae3d27d4eb4fULL));
    return static_cast<float>(h >> 40) / static_cast<float>(1ULL << 24);
}

[[nodiscard]] float smoothstep(float t) noexcept { return t * t * (3.0F - 2.0F * t); }

// Add one octave of bilinear value noise to a row: the two lattice rows
// bracketing `r` are hashed once per lattice COLUMN and interpolated
// across the cell, so cost is ~2 hashes per `cell` pixels instead of 4
// per pixel — this is what keeps a 16k x 16k synthetic scene cheap.
void add_octave_row(std::uint64_t seed, std::size_t r, std::size_t cols,
                    std::size_t cell, float amp, float* dst) {
    const std::uint64_t gy = r / cell;
    const float ty = smoothstep(static_cast<float>(r % cell) /
                                static_cast<float>(cell));
    std::size_t c = 0;
    std::uint64_t gx = 0;
    float left = (1.0F - ty) * hash01(seed, gx, gy) + ty * hash01(seed, gx, gy + 1);
    while (c < cols) {
        const float right = (1.0F - ty) * hash01(seed, gx + 1, gy) +
                            ty * hash01(seed, gx + 1, gy + 1);
        const std::size_t span = std::min(cell, cols - c);
        for (std::size_t i = 0; i < span; ++i) {
            const float tx = smoothstep(static_cast<float>(i) /
                                        static_cast<float>(cell));
            dst[c + i] += amp * ((1.0F - tx) * left + tx * right);
        }
        c += span;
        ++gx;
        left = right;
    }
}

}  // namespace

SyntheticTileSource::SyntheticTileSource(std::size_t rows, std::size_t cols,
                                         std::uint64_t seed, int octaves)
    : rows_(rows), cols_(cols), seed_(seed), octaves_(std::clamp(octaves, 1, 8)) {
    if (rows == 0 || cols == 0) {
        throw std::invalid_argument("SyntheticTileSource: dimensions must be non-zero");
    }
}

void SyntheticTileSource::read_rows(std::size_t y0, std::size_t n,
                                    std::span<float> dst) {
    if (y0 > rows_ || n > rows_ - y0) {
        throw std::out_of_range("SyntheticTileSource: window outside image");
    }
    if (dst.size() != n * cols_) {
        throw std::invalid_argument("SyntheticTileSource: bad destination size");
    }
    for (std::size_t j = 0; j < n; ++j) {
        const std::size_t r = y0 + j;
        float* row = dst.data() + j * cols_;
        std::fill(row, row + cols_, 0.0F);
        // Octave o: lattice cell 64 >> o (floor 4), halving amplitude —
        // a coarse relief with progressively finer grain, scaled to a
        // radiometrically plausible [0, 255]-ish range.
        float amp = 160.0F;
        for (int o = 0; o < octaves_; ++o) {
            const std::size_t cell = std::max<std::size_t>(4, 64 >> o);
            add_octave_row(seed_ + static_cast<std::uint64_t>(o) * 0x51ed270b9ULL, r,
                           cols_, cell, amp, row);
            amp *= 0.5F;
        }
    }
}

core::ImageF SyntheticTileSource::materialize() {
    core::ImageF img(rows_, cols_);
    read_rows(0, rows_, img.flat());
    return img;
}

PgmTileSource::PgmTileSource(std::string path)
    : path_(std::move(path)), info_(core::read_pgm_header(path_)) {}

void PgmTileSource::read_rows(std::size_t y0, std::size_t n, std::span<float> dst) {
    if (dst.size() != n * info_.cols) {
        throw std::invalid_argument("PgmTileSource: bad destination size");
    }
    const core::ImageF band = core::read_pgm_rows(path_, y0, n);
    std::copy(band.flat().begin(), band.flat().end(), dst.begin());
}

void InMemoryTileSource::read_rows(std::size_t y0, std::size_t n,
                                   std::span<float> dst) {
    if (y0 > img_.rows() || n > img_.rows() - y0) {
        throw std::out_of_range("InMemoryTileSource: window outside image");
    }
    if (dst.size() != n * img_.cols()) {
        throw std::invalid_argument("InMemoryTileSource: bad destination size");
    }
    std::memcpy(dst.data(), img_.row(y0).data(), n * img_.cols() * sizeof(float));
}

}  // namespace wavehpc::tile
