// Unified kernel layer (core/kernels.hpp): kernel selection, lifting-plan
// factorization, convolve/lifting agreement, and the synthesis boundary
// contract. The boundary tests are the regression net for the
// analysis/synthesis asymmetry bug: synthesis used to wrap periodically
// no matter which BoundaryMode produced the coefficients, so each
// non-Periodic case here failed before the fix.

#include "core/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/convolve.hpp"
#include "core/dwt.hpp"
#include "core/synthetic.hpp"
#include "wavelet/threads_dwt.hpp"

namespace {

using wavehpc::core::BoundaryMode;
using wavehpc::core::DwtKernel;
using wavehpc::core::FilterPair;
using wavehpc::core::ImageF;
using wavehpc::core::build_lifting_plan;
using wavehpc::core::extend_index;
using wavehpc::core::parse_dwt_kernel;
using wavehpc::core::set_default_dwt_kernel;

constexpr BoundaryMode kModes[] = {BoundaryMode::Periodic, BoundaryMode::Symmetric,
                                   BoundaryMode::ZeroPad};
constexpr int kTaps[] = {2, 4, 6, 8};

ImageF scene(std::size_t rows, std::size_t cols, std::uint64_t seed) {
    return wavehpc::core::landsat_tm_like(rows, cols, seed);
}

double max_abs_diff(const ImageF& a, const ImageF& b) {
    EXPECT_EQ(a.rows(), b.rows());
    EXPECT_EQ(a.cols(), b.cols());
    double worst = 0.0;
    for (std::size_t r = 0; r < a.rows(); ++r) {
        for (std::size_t c = 0; c < a.cols(); ++c) {
            worst = std::max(worst, std::abs(double(a(r, c)) - double(b(r, c))));
        }
    }
    return worst;
}

// RAII guard: force a known process-wide kernel selection state and restore
// Auto (environment-driven) on the way out so tests cannot leak selection.
struct KernelOverride {
    explicit KernelOverride(DwtKernel k) { set_default_dwt_kernel(k); }
    ~KernelOverride() { set_default_dwt_kernel(DwtKernel::Auto); }
};

// ------------------------------------------------------------------ selection

TEST(KernelSelect, ParseAcceptsTheThreeNamesOnly) {
    DwtKernel k = DwtKernel::Auto;
    EXPECT_TRUE(parse_dwt_kernel("convolve", k));
    EXPECT_EQ(k, DwtKernel::Convolve);
    EXPECT_TRUE(parse_dwt_kernel("lifting", k));
    EXPECT_EQ(k, DwtKernel::Lifting);
    EXPECT_TRUE(parse_dwt_kernel("auto", k));
    EXPECT_EQ(k, DwtKernel::Auto);

    k = DwtKernel::Lifting;
    EXPECT_FALSE(parse_dwt_kernel("Convolve", k));  // case-sensitive
    EXPECT_FALSE(parse_dwt_kernel("", k));
    EXPECT_FALSE(parse_dwt_kernel("fft", k));
    EXPECT_EQ(k, DwtKernel::Lifting);  // untouched on failure

    EXPECT_STREQ(wavehpc::core::to_string(DwtKernel::Convolve), "convolve");
    EXPECT_STREQ(wavehpc::core::to_string(DwtKernel::Lifting), "lifting");
    EXPECT_STREQ(wavehpc::core::to_string(DwtKernel::Auto), "auto");
}

TEST(KernelSelect, EnvironmentVariableDrivesAutoResolution) {
    set_default_dwt_kernel(DwtKernel::Auto);  // defer to the environment
    const FilterPair fp = FilterPair::daubechies(4);

    ASSERT_EQ(::setenv("WAVEHPC_DWT_KERNEL", "lifting", 1), 0);
    EXPECT_EQ(wavehpc::core::default_dwt_kernel(), DwtKernel::Lifting);
    EXPECT_EQ(wavehpc::core::resolve_dwt_kernel(DwtKernel::Auto, fp),
              DwtKernel::Lifting);

    ASSERT_EQ(::setenv("WAVEHPC_DWT_KERNEL", "bogus", 1), 0);
    EXPECT_THROW((void)wavehpc::core::default_dwt_kernel(), std::invalid_argument);

    ASSERT_EQ(::unsetenv("WAVEHPC_DWT_KERNEL"), 0);
    EXPECT_EQ(wavehpc::core::default_dwt_kernel(), DwtKernel::Convolve);
}

// Misconfiguration fails loudly: the error names the variable and the value
// it rejected, so a typo in a job script is found from the message alone.
TEST(KernelSelect, UnknownEnvironmentKernelErrorNamesVariableAndValue) {
    set_default_dwt_kernel(DwtKernel::Auto);
    ASSERT_EQ(::setenv("WAVEHPC_DWT_KERNEL", "liftnig", 1), 0);
    try {
        (void)wavehpc::core::default_dwt_kernel();
        ADD_FAILURE() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("WAVEHPC_DWT_KERNEL"), std::string::npos) << what;
        EXPECT_NE(what.find("liftnig"), std::string::npos) << what;
    }
    ASSERT_EQ(::unsetenv("WAVEHPC_DWT_KERNEL"), 0);
}

TEST(KernelSelect, ProgrammaticOverrideBeatsEnvironment) {
    ASSERT_EQ(::setenv("WAVEHPC_DWT_KERNEL", "convolve", 1), 0);
    {
        KernelOverride lift(DwtKernel::Lifting);
        EXPECT_EQ(wavehpc::core::default_dwt_kernel(), DwtKernel::Lifting);
    }
    EXPECT_EQ(wavehpc::core::default_dwt_kernel(), DwtKernel::Convolve);
    ASSERT_EQ(::unsetenv("WAVEHPC_DWT_KERNEL"), 0);
}

TEST(KernelSelect, ExplicitKernelIgnoresTheDefault) {
    KernelOverride lift(DwtKernel::Lifting);
    const FilterPair fp = FilterPair::daubechies(8);
    EXPECT_EQ(wavehpc::core::resolve_dwt_kernel(DwtKernel::Convolve, fp),
              DwtKernel::Convolve);
    EXPECT_EQ(wavehpc::core::resolve_dwt_kernel(DwtKernel::Lifting, fp),
              DwtKernel::Lifting);
}

// ----------------------------------------------------------------- the plans

TEST(LiftingPlan, EveryRegisteredDaubechiesBankFactorizes) {
    for (const int taps : kTaps) {
        const auto plan = build_lifting_plan(FilterPair::daubechies(taps));
        EXPECT_TRUE(plan.valid) << "taps=" << taps;
        EXPECT_EQ(plan.stages(), static_cast<std::size_t>(taps / 2))
            << "taps=" << taps;
        EXPECT_NE(plan.scale_lo, 0.0F);
        EXPECT_NE(plan.scale_hi, 0.0F);
    }
}

TEST(LiftingPlan, HaarIsTheSingleExactButterfly) {
    const auto plan = build_lifting_plan(FilterPair::daubechies(2));
    ASSERT_TRUE(plan.valid);
    ASSERT_EQ(plan.stages(), 1U);
    EXPECT_NEAR(plan.shear[0], 1.0F, 1e-6F);
    EXPECT_NEAR(std::abs(plan.scale_lo), std::sqrt(0.5F), 1e-6F);
}

TEST(LiftingPlan, D4FirstStageIsTheKnownSixtyDegreeRotation) {
    // The Daubechies-4 lattice angle is exactly 60 degrees (tan = sqrt 3),
    // a closed-form anchor for the numerical peeling.
    const auto plan = build_lifting_plan(FilterPair::daubechies(4));
    ASSERT_TRUE(plan.valid);
    ASSERT_EQ(plan.stages(), 2U);
    EXPECT_NEAR(plan.shear[0], std::sqrt(3.0F), 1e-5F);
}

TEST(LiftingPlan, UnfactorizableFilterIsRejectedNotMisused) {
    // A filter that is not paraunitary has no lattice factorization; the
    // plan must come back invalid and resolve_ must degrade to Convolve.
    const FilterPair box({0.5F, 0.5F, 0.5F, 0.5F}, "box4");
    const auto plan = build_lifting_plan(box);
    EXPECT_FALSE(plan.valid);
    EXPECT_EQ(wavehpc::core::resolve_dwt_kernel(DwtKernel::Lifting, box),
              DwtKernel::Convolve);
}

// ------------------------------------------- convolve against the reference
//
// The register-blocked convolve kernels must reproduce the unfused
// convolve_decimate_rows/cols reference bit for bit, wherever they run:
// full planes, output sub-ranges, tile slivers and the mesh backend's
// pre-extended stripes. Inputs are signed and carry blocks of -0.0f: a
// window of -0.0f samples under positive taps sums to +0.0f only when the
// accumulator starts at +0.0f, as the reference does.

constexpr std::size_t kWidths[] = {2, 6, 18, 34, 130, 512};

ImageF signed_scene(std::size_t rows, std::size_t cols, std::uint64_t seed) {
    ImageF img = scene(rows, cols, seed);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            const bool zero_band = (c >= cols / 4 && c < cols / 4 + 8) ||
                                   (r >= rows / 4 && r < rows / 4 + 8);
            img(r, c) = zero_band ? -0.0F : img(r, c) - 100.0F;
        }
    }
    return img;
}

[[nodiscard]] bool same_bits(const float* a, const float* b, std::size_t n) {
    return n == 0 || std::memcmp(a, b, n * sizeof(float)) == 0;
}

[[nodiscard]] bool same_bits(const ImageF& a, const ImageF& b) {
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           same_bits(a.flat().data(), b.flat().data(), a.size());
}

/// Output planes pre-filled with garbage: the kernels write every element,
/// so nothing may depend on the outputs starting zeroed.
[[nodiscard]] ImageF dirty(std::size_t rows, std::size_t cols) {
    return ImageF(rows, cols, std::vector<float>(rows * cols, 12345.0F));
}

struct ColRef {
    ImageF ll, lh, hl, hh;
};

[[nodiscard]] ColRef column_reference(const ImageF& low, const ImageF& high,
                                      const FilterPair& fp, BoundaryMode mode) {
    ColRef ref;
    wavehpc::core::convolve_decimate_cols(low, fp.low(), ref.ll, mode);
    wavehpc::core::convolve_decimate_cols(low, fp.high(), ref.lh, mode);
    wavehpc::core::convolve_decimate_cols(high, fp.low(), ref.hl, mode);
    wavehpc::core::convolve_decimate_cols(high, fp.high(), ref.hh, mode);
    return ref;
}

TEST(ConvolveKernel, RowPassMatchesReferenceEveryBankModeWidth) {
    for (const int taps : kTaps) {
        const FilterPair fp = FilterPair::daubechies(taps);
        for (const BoundaryMode mode : kModes) {
            for (const std::size_t w : kWidths) {
                const ImageF img = signed_scene(4, w, 7 + w);
                ImageF ref_lo, ref_hi;
                wavehpc::core::convolve_decimate_rows(img, fp.low(), ref_lo, mode);
                wavehpc::core::convolve_decimate_rows(img, fp.high(), ref_hi, mode);
                ImageF lo = dirty(4, w / 2);
                ImageF hi = dirty(4, w / 2);
                wavehpc::core::analyze_rows_range(img, fp, lo, hi, mode,
                                                  DwtKernel::Convolve, 0, 4);
                EXPECT_TRUE(same_bits(lo, ref_lo)) << "taps " << taps << " w " << w;
                EXPECT_TRUE(same_bits(hi, ref_hi)) << "taps " << taps << " w " << w;
            }
        }
    }
}

TEST(ConvolveKernel, RowRangesMatchReferenceForEverySplit) {
    for (const int taps : kTaps) {
        const FilterPair fp = FilterPair::daubechies(taps);
        for (const BoundaryMode mode : kModes) {
            for (const std::size_t w : kWidths) {
                if (w > 34) continue;
                const ImageF img = signed_scene(1, w, 3 + w);
                const std::size_t half = w / 2;
                std::vector<float> ref_lo(half), ref_hi(half);
                wavehpc::core::convolve_decimate_1d(img.row(0), fp.low(), ref_lo, mode);
                wavehpc::core::convolve_decimate_1d(img.row(0), fp.high(), ref_hi, mode);
                for (std::size_t k0 = 0; k0 <= half; ++k0) {
                    for (std::size_t k1 = k0; k1 <= half; ++k1) {
                        std::vector<float> lo(k1 - k0, 12345.0F), hi(k1 - k0, 12345.0F);
                        wavehpc::core::analyze_1d_range(img.row(0), fp, lo, hi, mode,
                                                        DwtKernel::Convolve, k0, k1);
                        EXPECT_TRUE(same_bits(lo.data(), ref_lo.data() + k0, k1 - k0))
                            << "taps " << taps << " w " << w << " [" << k0 << "," << k1
                            << ")";
                        EXPECT_TRUE(same_bits(hi.data(), ref_hi.data() + k0, k1 - k0))
                            << "taps " << taps << " w " << w << " [" << k0 << "," << k1
                            << ")";
                    }
                }
            }
        }
    }
}

TEST(ConvolveKernel, ColumnPassMatchesReferenceEveryBankModeHeight) {
    for (const int taps : kTaps) {
        const FilterPair fp = FilterPair::daubechies(taps);
        for (const BoundaryMode mode : kModes) {
            for (const std::size_t h : kWidths) {
                // 37 columns: two full 16-lane blocks and a 5-column tail.
                const ImageF low = signed_scene(h, 37, 11 + h);
                const ImageF high = signed_scene(h, 37, 13 + h);
                const ColRef ref = column_reference(low, high, fp, mode);
                const std::size_t half = h / 2;
                ImageF ll = dirty(half, 37), lh = dirty(half, 37);
                ImageF hl = dirty(half, 37), hh = dirty(half, 37);
                wavehpc::core::analyze_cols_range(low, high, fp, ll, lh, hl, hh, mode,
                                                  DwtKernel::Convolve, 0, half);
                const std::string tag =
                    "taps " + std::to_string(taps) + " h " + std::to_string(h);
                EXPECT_TRUE(same_bits(ll, ref.ll)) << tag;
                EXPECT_TRUE(same_bits(lh, ref.lh)) << tag;
                EXPECT_TRUE(same_bits(hl, ref.hl)) << tag;
                EXPECT_TRUE(same_bits(hh, ref.hh)) << tag;
            }
        }
    }
}

TEST(ConvolveKernel, ColumnRangesMatchReferenceForEverySplit) {
    for (const int taps : kTaps) {
        const FilterPair fp = FilterPair::daubechies(taps);
        for (const BoundaryMode mode : kModes) {
            for (const std::size_t h : kWidths) {
                if (h > 34) continue;
                const ImageF low = signed_scene(h, 19, 5 + h);
                const ImageF high = signed_scene(h, 19, 9 + h);
                const ColRef ref = column_reference(low, high, fp, mode);
                const std::size_t half = h / 2;
                for (std::size_t k0 = 0; k0 <= half; ++k0) {
                    for (std::size_t k1 = k0; k1 <= half; ++k1) {
                        ImageF ll = dirty(half, 19), lh = dirty(half, 19);
                        ImageF hl = dirty(half, 19), hh = dirty(half, 19);
                        wavehpc::core::analyze_cols_range(low, high, fp, ll, lh, hl, hh,
                                                          mode, DwtKernel::Convolve, k0,
                                                          k1);
                        for (std::size_t k = k0; k < k1; ++k) {
                            ASSERT_TRUE(same_bits(ll.row(k).data(), ref.ll.row(k).data(), 19) &&
                                        same_bits(lh.row(k).data(), ref.lh.row(k).data(), 19) &&
                                        same_bits(hl.row(k).data(), ref.hl.row(k).data(), 19) &&
                                        same_bits(hh.row(k).data(), ref.hh.row(k).data(), 19))
                                << "taps " << taps << " h " << h << " [" << k0 << ","
                                << k1 << ") row " << k;
                        }
                    }
                }
            }
        }
    }
}

TEST(ConvolveKernel, TileSliversMatchReference) {
    const ImageF low = signed_scene(34, 130, 21);
    const ImageF high = signed_scene(34, 130, 23);
    for (const int taps : kTaps) {
        const FilterPair fp = FilterPair::daubechies(taps);
        for (const BoundaryMode mode : kModes) {
            const ColRef ref = column_reference(low, high, fp, mode);
            // Slivers 1, 3, 17 and 40 columns wide at odd offsets, over
            // output bands that touch both plane edges.
            const std::pair<std::size_t, std::size_t> slivers[] = {
                {0, 1}, {5, 3}, {33, 17}, {90, 40}};
            const std::pair<std::size_t, std::size_t> bands[] = {{0, 3}, {4, 13}, {13, 17}};
            for (const auto& [c0, tw] : slivers) {
                for (const auto& [k0, k1] : bands) {
                    const wavehpc::core::RowAccessor lo_at = [&, c0 = c0](std::size_t r) {
                        return low.row(r).data() + c0;
                    };
                    const wavehpc::core::RowAccessor hi_at = [&, c0 = c0](std::size_t r) {
                        return high.row(r).data() + c0;
                    };
                    ImageF ll = dirty(k1 - k0, tw), lh = dirty(k1 - k0, tw);
                    ImageF hl = dirty(k1 - k0, tw), hh = dirty(k1 - k0, tw);
                    wavehpc::core::analyze_cols_tile(lo_at, hi_at, 34, tw, fp, ll, lh, hl,
                                                     hh, mode, DwtKernel::Convolve, k0, k1);
                    for (std::size_t k = k0; k < k1; ++k) {
                        const std::size_t j = k - k0;
                        ASSERT_TRUE(same_bits(ll.row(j).data(), ref.ll.row(k).data() + c0, tw) &&
                                    same_bits(lh.row(j).data(), ref.lh.row(k).data() + c0, tw) &&
                                    same_bits(hl.row(j).data(), ref.hl.row(k).data() + c0, tw) &&
                                    same_bits(hh.row(j).data(), ref.hh.row(k).data() + c0, tw))
                            << "taps " << taps << " sliver " << c0 << "+" << tw << " row "
                            << k;
                    }
                }
            }
        }
    }
}

TEST(ConvolveKernel, PreExtendedStripesMatchReference) {
    // The mesh backend gathers a stripe's guard rows explicitly (a ZeroPad
    // row outside the plane arrives as a row of zeros) and runs the column
    // pass with no boundary mapping.
    const std::size_t rows = 34;
    const std::size_t cols = 21;
    const ImageF low = signed_scene(rows, cols, 31);
    const ImageF high = signed_scene(rows, cols, 37);
    for (const int taps : kTaps) {
        const FilterPair fp = FilterPair::daubechies(taps);
        for (const BoundaryMode mode : kModes) {
            const ColRef ref = column_reference(low, high, fp, mode);
            for (const auto& [k0, k1] : {std::pair<std::size_t, std::size_t>{0, 5},
                                         {5, 12},
                                         {12, 17}}) {
                const std::size_t ext_rows = 2 * (k1 - k0) + static_cast<std::size_t>(taps) - 2;
                ImageF low_ext(ext_rows, cols), high_ext(ext_rows, cols);
                for (std::size_t i = 0; i < ext_rows; ++i) {
                    const std::size_t g = extend_index(
                        static_cast<std::ptrdiff_t>(2 * k0 + i), rows, mode);
                    if (g >= rows) continue;  // ZeroPad: the row stays zero
                    std::copy(low.row(g).begin(), low.row(g).end(), low_ext.row(i).begin());
                    std::copy(high.row(g).begin(), high.row(g).end(),
                              high_ext.row(i).begin());
                }
                ImageF ll = dirty(k1 - k0, cols), lh = dirty(k1 - k0, cols);
                ImageF hl = dirty(k1 - k0, cols), hh = dirty(k1 - k0, cols);
                wavehpc::core::analyze_cols_ext_range(low_ext, high_ext, fp, ll, lh, hl, hh,
                                                      0, k1 - k0);
                for (std::size_t k = k0; k < k1; ++k) {
                    const std::size_t j = k - k0;
                    ASSERT_TRUE(same_bits(ll.row(j).data(), ref.ll.row(k).data(), cols) &&
                                same_bits(lh.row(j).data(), ref.lh.row(k).data(), cols) &&
                                same_bits(hl.row(j).data(), ref.hl.row(k).data(), cols) &&
                                same_bits(hh.row(j).data(), ref.hh.row(k).data(), cols))
                        << "taps " << taps << " mode " << static_cast<int>(mode)
                        << " row " << k;
                }
            }
        }
    }
}

TEST(ConvolveKernel, NegativeZeroWindowsSumToPositiveZero) {
    // Haar's low-pass taps are both positive, so a window of -0.0f gives
    // two -0.0f products; the reference's +0.0f start makes the sum +0.0f.
    const FilterPair fp = FilterPair::daubechies(2);
    const std::vector<float> x(16, -0.0F);
    std::vector<float> lo(8, 1.0F), hi(8, 1.0F);
    wavehpc::core::analyze_1d(x, fp, lo, hi, BoundaryMode::Periodic, DwtKernel::Convolve);
    for (const float v : lo) EXPECT_FALSE(std::signbit(v));
}

// The threads backend's stripes run the row pass over a run of source rows
// into scratch (row r at r - out0) and the column pass straight into the
// full subband planes (out0 = 0). Both must reproduce the full-plane sweeps
// bit for bit, for every kernel.
TEST(KernelOrigins, RowAndColumnRangesLandAtTheirOutputOrigin) {
    const ImageF img = signed_scene(34, 38, 61);
    for (const DwtKernel kernel : {DwtKernel::Convolve, DwtKernel::Lifting}) {
        for (const int taps : kTaps) {
            const FilterPair fp = FilterPair::daubechies(taps);
            for (const BoundaryMode mode : kModes) {
                ImageF lo = dirty(34, 19), hi = dirty(34, 19);
                wavehpc::core::analyze_rows_range(img, fp, lo, hi, mode, kernel, 0, 34);
                ImageF part_lo = dirty(9, 19), part_hi = dirty(9, 19);
                wavehpc::core::analyze_rows_range(img, fp, part_lo, part_hi, mode, kernel,
                                                  21, 30, 21);
                for (std::size_t r = 21; r < 30; ++r) {
                    const std::size_t j = r - 21;
                    ASSERT_TRUE(same_bits(part_lo.row(j).data(), lo.row(r).data(), 19) &&
                                same_bits(part_hi.row(j).data(), hi.row(r).data(), 19))
                        << to_string(kernel) << " taps " << taps << " row " << r;
                }
                ImageF ll = dirty(17, 19), lh = dirty(17, 19);
                ImageF hl = dirty(17, 19), hh = dirty(17, 19);
                wavehpc::core::analyze_cols_range(lo, hi, fp, ll, lh, hl, hh, mode,
                                                  kernel, 0, 17);
                const wavehpc::core::RowAccessor lo_at = [&](std::size_t r) {
                    return lo.row(r).data();
                };
                const wavehpc::core::RowAccessor hi_at = [&](std::size_t r) {
                    return hi.row(r).data();
                };
                ImageF pll = dirty(17, 19), plh = dirty(17, 19);
                ImageF phl = dirty(17, 19), phh = dirty(17, 19);
                wavehpc::core::analyze_cols_tile(lo_at, hi_at, 34, 19, fp, pll, plh, phl,
                                                 phh, mode, kernel, 5, 13, 0);
                for (std::size_t k = 5; k < 13; ++k) {
                    ASSERT_TRUE(same_bits(pll.row(k).data(), ll.row(k).data(), 19) &&
                                same_bits(plh.row(k).data(), lh.row(k).data(), 19) &&
                                same_bits(phl.row(k).data(), hl.row(k).data(), 19) &&
                                same_bits(phh.row(k).data(), hh.row(k).data(), 19))
                        << to_string(kernel) << " taps " << taps << " row " << k;
                }
                EXPECT_EQ(pll(4, 0), 12345.0F);  // rows outside [k0, k1) untouched
                EXPECT_EQ(pll(13, 0), 12345.0F);
            }
        }
    }
    const FilterPair fp = FilterPair::daubechies(4);
    const auto rows_into_9 = [&](std::size_t r0, std::size_t r1, std::size_t out0) {
        ImageF lo = dirty(9, 19), hi = dirty(9, 19);
        wavehpc::core::analyze_rows_range(img, fp, lo, hi, BoundaryMode::Periodic,
                                          DwtKernel::Convolve, r0, r1, out0);
    };
    EXPECT_NO_THROW(rows_into_9(21, 30, 21));
    EXPECT_THROW(rows_into_9(20, 30, 21), std::invalid_argument);  // origin past r0
    EXPECT_THROW(rows_into_9(20, 30, 20), std::invalid_argument);  // 10 rows into 9
}

// -------------------------------------------------- convolve/lifting parity

TEST(LiftingKernel, HaarMatchesConvolveBitExactly) {
    const FilterPair fp = FilterPair::daubechies(2);
    const ImageF img = scene(64, 96, 42);
    for (const auto mode : kModes) {
        ImageF cl(64, 48), ch(64, 48), ll(64, 48), lh(64, 48);
        wavehpc::core::analyze_rows_range(img, fp, cl, ch, mode,
                                          DwtKernel::Convolve, 0, img.rows());
        wavehpc::core::analyze_rows_range(img, fp, ll, lh, mode,
                                          DwtKernel::Lifting, 0, img.rows());
        for (std::size_t r = 0; r < cl.rows(); ++r) {
            for (std::size_t c = 0; c < cl.cols(); ++c) {
                ASSERT_EQ(cl(r, c), ll(r, c)) << r << "," << c;
                ASSERT_EQ(ch(r, c), lh(r, c)) << r << "," << c;
            }
        }
    }
}

TEST(LiftingKernel, HaarWholeLevelBitExact) {
    const FilterPair fp = FilterPair::daubechies(2);
    const ImageF img = scene(64, 64, 7);
    for (const auto mode : kModes) {
        ImageF cll, clh, chl, chh, lll, llh, lhl, lhh;
        wavehpc::core::analyze_level(img, fp, cll, clh, chl, chh, mode,
                                     DwtKernel::Convolve);
        wavehpc::core::analyze_level(img, fp, lll, llh, lhl, lhh, mode,
                                     DwtKernel::Lifting);
        EXPECT_EQ(max_abs_diff(cll, lll), 0.0) << "mode " << int(mode);
        EXPECT_EQ(max_abs_diff(clh, llh), 0.0);
        EXPECT_EQ(max_abs_diff(chl, lhl), 0.0);
        EXPECT_EQ(max_abs_diff(chh, lhh), 0.0);
    }
}

TEST(LiftingKernel, WideFiltersMatchConvolveWithinTolerance) {
    // Different factorization, different rounding: agreement is within a
    // documented tolerance on 0..255-scale scenes (DESIGN.md), not bit-exact.
    constexpr double kTol = 1e-3;
    const ImageF img = scene(64, 96, 1996);
    for (const int taps : {4, 6, 8}) {
        const FilterPair fp = FilterPair::daubechies(taps);
        for (const auto mode : kModes) {
            ImageF cll, clh, chl, chh, lll, llh, lhl, lhh;
            wavehpc::core::analyze_level(img, fp, cll, clh, chl, chh, mode,
                                         DwtKernel::Convolve);
            wavehpc::core::analyze_level(img, fp, lll, llh, lhl, lhh, mode,
                                         DwtKernel::Lifting);
            EXPECT_LT(max_abs_diff(cll, lll), kTol)
                << "taps=" << taps << " mode=" << int(mode);
            EXPECT_LT(max_abs_diff(clh, llh), kTol);
            EXPECT_LT(max_abs_diff(chl, lhl), kTol);
            EXPECT_LT(max_abs_diff(chh, lhh), kTol);
        }
    }
}

TEST(LiftingKernel, OneDimensionalAgreesWithDecimate1d) {
    const FilterPair fp = FilterPair::daubechies(8);
    const ImageF img = scene(1, 128, 3);
    const auto x = img.flat();
    std::vector<float> rlo(64), rhi(64), lo(64), hi(64);
    for (const auto mode : kModes) {
        wavehpc::core::convolve_decimate_1d(x, fp.low(), rlo, mode);
        wavehpc::core::convolve_decimate_1d(x, fp.high(), rhi, mode);
        wavehpc::core::analyze_1d(x, fp, lo, hi, mode, DwtKernel::Lifting);
        for (std::size_t k = 0; k < 64; ++k) {
            EXPECT_NEAR(lo[k], rlo[k], 1e-3F) << "mode " << int(mode);
            EXPECT_NEAR(hi[k], rhi[k], 1e-3F) << "mode " << int(mode);
        }
    }
}

TEST(LiftingKernel, ThreadedDecomposeBitIdenticalToSerialLifting) {
    // The thread split must not change lifting results: every output row is
    // a fixed function of its source rows regardless of chunk boundaries.
    const ImageF img = scene(96, 64, 11);
    const FilterPair fp = FilterPair::daubechies(8);
    wavehpc::runtime::ThreadPool pool(3);
    for (const auto mode : kModes) {
        const auto serial =
            wavehpc::core::decompose(img, fp, 2, mode, DwtKernel::Lifting);
        const auto parallel = wavehpc::wavelet::decompose_parallel(
            img, fp, 2, mode, pool, DwtKernel::Lifting);
        ASSERT_EQ(serial.levels.size(), parallel.levels.size());
        EXPECT_EQ(max_abs_diff(serial.approx, parallel.approx), 0.0);
        for (std::size_t l = 0; l < serial.levels.size(); ++l) {
            EXPECT_EQ(max_abs_diff(serial.levels[l].lh, parallel.levels[l].lh), 0.0);
            EXPECT_EQ(max_abs_diff(serial.levels[l].hl, parallel.levels[l].hl), 0.0);
            EXPECT_EQ(max_abs_diff(serial.levels[l].hh, parallel.levels[l].hh), 0.0);
        }
    }
}

TEST(LiftingKernel, EnvKnobReachesDecompose) {
    // End-to-end: selecting lifting through the process default changes the
    // coefficients decompose() produces (proof the knob is actually wired).
    const ImageF img = scene(32, 32, 5);
    const FilterPair fp = FilterPair::daubechies(8);
    const auto convolve = wavehpc::core::decompose(img, fp, 1);
    KernelOverride lift(DwtKernel::Lifting);
    const auto lifting = wavehpc::core::decompose(img, fp, 1);
    const double dev = max_abs_diff(convolve.approx, lifting.approx);
    EXPECT_GT(dev, 0.0);    // a different kernel ran...
    EXPECT_LT(dev, 1e-3);   // ...computing the same transform
}

// ------------------------------------------------- synthesis boundary contract
//
// Synthesis must be the exact adjoint of analysis *under the same
// BoundaryMode*. The brute-force adjoint below scatters every analysis tap
// through extend_index; before the fix, synthesize_rows wrapped
// periodically for every mode and the Symmetric/ZeroPad cases failed.

ImageF adjoint_rows_reference(const ImageF& lo, const ImageF& hi,
                              const FilterPair& fp, BoundaryMode mode) {
    const std::size_t half = lo.cols();
    const std::size_t n = 2 * half;
    ImageF out(lo.rows(), n);
    const auto fl = fp.low();
    const auto fh = fp.high();
    for (std::size_t r = 0; r < lo.rows(); ++r) {
        for (std::size_t k = 0; k < half; ++k) {
            for (std::size_t j = 0; j < fl.size(); ++j) {
                const std::size_t i =
                    extend_index(static_cast<std::ptrdiff_t>(2 * k + j), n, mode);
                if (i >= n) continue;  // ZeroPad: tap read a zero
                out(r, i) += fl[j] * lo(r, k) + fh[j] * hi(r, k);
            }
        }
    }
    return out;
}

TEST(SynthesisBoundary, GatherRowsMatchesBruteForceAdjointEveryMode) {
    for (const int taps : kTaps) {
        const FilterPair fp = FilterPair::daubechies(taps);
        const ImageF lo = scene(4, 16, 21);
        const ImageF hi = scene(4, 16, 22);
        for (const auto mode : kModes) {
            const ImageF want = adjoint_rows_reference(lo, hi, fp, mode);
            ImageF got;
            wavehpc::core::synthesize_rows(lo, hi, fp.low(), fp.high(), got, mode);
            EXPECT_LT(max_abs_diff(want, got), 1e-4)
                << "taps=" << taps << " mode=" << int(mode);
        }
    }
}

TEST(SynthesisBoundary, TinyBandsStillMatchBruteForce) {
    // Deep pyramid levels: band narrower than the filter, where indices
    // wrap or reflect more than once. Exercises the full-window fallback.
    const FilterPair fp = FilterPair::daubechies(8);
    const ImageF lo = scene(2, 2, 31);  // n = 4 < taps = 8
    const ImageF hi = scene(2, 2, 32);
    for (const auto mode : kModes) {
        const ImageF want = adjoint_rows_reference(lo, hi, fp, mode);
        ImageF got;
        wavehpc::core::synthesize_rows(lo, hi, fp.low(), fp.high(), got, mode);
        EXPECT_LT(max_abs_diff(want, got), 1e-4) << "mode " << int(mode);
    }
}

TEST(SynthesisBoundary, ZeroPadDropsWrappedTaps) {
    // The sharpest fail-before-fix case: a lone coefficient at the right
    // edge. Periodic synthesis wraps its spilled taps onto samples 0 and 1;
    // ZeroPad analysis never read those samples, so its adjoint must leave
    // them exactly zero.
    const FilterPair fp = FilterPair::daubechies(4);
    ImageF lo(1, 8), hi(1, 8);
    lo(0, 7) = 1.0F;  // window 2k+j = 14..17 spills two taps past n = 16
    ImageF out;
    wavehpc::core::synthesize_rows(lo, hi, fp.low(), fp.high(), out,
                                   BoundaryMode::ZeroPad);
    EXPECT_EQ(out(0, 0), 0.0F);
    EXPECT_EQ(out(0, 1), 0.0F);
    EXPECT_EQ(out(0, 14), fp.low()[0]);
    EXPECT_EQ(out(0, 15), fp.low()[1]);

    // Same coefficient under Periodic *does* wrap — the historical path.
    ImageF wrapped;
    wavehpc::core::synthesize_rows(lo, hi, fp.low(), fp.high(), wrapped,
                                   BoundaryMode::Periodic);
    EXPECT_EQ(wrapped(0, 0), fp.low()[2]);
    EXPECT_EQ(wrapped(0, 1), fp.low()[3]);
}

TEST(SynthesisBoundary, SymmetricFoldsOntoTheReflection) {
    // Under Symmetric extension the spilled taps read the mirrored samples
    // 2n-1-i, so the adjoint folds them back onto the right edge instead
    // of wrapping to the left.
    const FilterPair fp = FilterPair::daubechies(4);
    ImageF lo(1, 8), hi(1, 8);
    lo(0, 7) = 1.0F;
    ImageF out;
    wavehpc::core::synthesize_rows(lo, hi, fp.low(), fp.high(), out,
                                   BoundaryMode::Symmetric);
    EXPECT_EQ(out(0, 0), 0.0F);  // nothing wraps to the far edge
    EXPECT_EQ(out(0, 1), 0.0F);
    // Window samples 16, 17 reflect to 15, 14: tap 2 lands on 15, tap 3 on 14.
    EXPECT_EQ(out(0, 15), fp.low()[1] + fp.low()[2]);
    EXPECT_EQ(out(0, 14), fp.low()[0] + fp.low()[3]);
}

TEST(SynthesisBoundary, ScatterFormAgreesWithGatherFormEveryMode) {
    // upsample_accumulate_* (scatter, serial reconstruct) and
    // synthesize_* (gather, parallel reconstruct) must stay one operator.
    const FilterPair fp = FilterPair::daubechies(8);
    const ImageF lo = scene(6, 12, 51);
    const ImageF hi = scene(6, 12, 52);
    for (const auto mode : kModes) {
        ImageF gather;
        wavehpc::core::synthesize_rows(lo, hi, fp.low(), fp.high(), gather, mode);
        ImageF scatter(lo.rows(), 2 * lo.cols());
        wavehpc::core::upsample_accumulate_rows(lo, fp.low(), scatter, mode);
        wavehpc::core::upsample_accumulate_rows(hi, fp.high(), scatter, mode);
        EXPECT_LT(max_abs_diff(gather, scatter), 1e-4) << "mode " << int(mode);
    }
}

TEST(SynthesisBoundary, RoundTripMatrixInteriorExactEdgesBounded) {
    // decompose + reconstruct under one shared mode, every mode x filter x
    // kernel. Periodic is perfect reconstruction everywhere. Symmetric /
    // ZeroPad with orthonormal (asymmetric) Daubechies filters reconstruct
    // the interior exactly; both edges carry the documented distortion —
    // right/bottom because analysis windows extend (then truncate or
    // reflect), left/top because the negative-shift windows that periodic
    // wrap supplies are absent from the cross-term identity. The bands are
    // ~3*taps wide after two levels and must stay bounded (ZeroPad
    // attenuates, Symmetric folds) rather than exploding or wrapping.
    const ImageF img = scene(128, 128, 77);
    for (const int taps : kTaps) {
        const FilterPair fp = FilterPair::daubechies(taps);
        const std::size_t margin = 4 * static_cast<std::size_t>(taps);
        for (const auto mode : kModes) {
            for (const auto kernel : {DwtKernel::Convolve, DwtKernel::Lifting}) {
                const auto pyr = wavehpc::core::decompose(img, fp, 2, mode, kernel);
                const auto back = wavehpc::core::reconstruct(pyr, fp, mode);
                ASSERT_EQ(back.rows(), img.rows());
                ASSERT_EQ(back.cols(), img.cols());
                const double tol = 3e-3;  // 0..255 scale, two levels
                if (mode == BoundaryMode::Periodic) {
                    EXPECT_LT(max_abs_diff(img, back), tol)
                        << "taps=" << taps << " kernel=" << int(kernel);
                    continue;
                }
                double interior = 0.0, edge = 0.0;
                for (std::size_t r = 0; r < img.rows(); ++r) {
                    for (std::size_t c = 0; c < img.cols(); ++c) {
                        const double d = std::abs(double(img(r, c)) - double(back(r, c)));
                        const bool inside = r >= margin && r + margin < img.rows() &&
                                            c >= margin && c + margin < img.cols();
                        (inside ? interior : edge) = std::max(inside ? interior : edge, d);
                    }
                }
                EXPECT_LT(interior, tol)
                    << "taps=" << taps << " mode=" << int(mode)
                    << " kernel=" << int(kernel);
                // Edge distortion is the mode's documented attenuation/fold,
                // bounded by the signal scale — not periodic contamination.
                EXPECT_LT(edge, 2000.0) << "taps=" << taps << " mode=" << int(mode);
            }
        }
    }
}

TEST(SynthesisBoundary, GatherReconstructMatchesScatterEveryMode) {
    const ImageF img = scene(32, 32, 99);
    const FilterPair fp = FilterPair::daubechies(4);
    for (const auto mode : kModes) {
        const auto pyr = wavehpc::core::decompose(img, fp, 2, mode);
        const auto scatter = wavehpc::core::reconstruct(pyr, fp, mode);
        const auto gather = wavehpc::core::reconstruct_gather(pyr, fp, mode);
        EXPECT_LT(max_abs_diff(scatter, gather), 1e-3) << "mode " << int(mode);
    }
}

TEST(SynthesisBoundary, ThreadedReconstructHonorsMode) {
    const ImageF img = scene(64, 64, 13);
    const FilterPair fp = FilterPair::daubechies(8);
    wavehpc::runtime::ThreadPool pool(3);
    for (const auto mode : kModes) {
        const auto pyr = wavehpc::core::decompose(img, fp, 2, mode);
        const auto serial = wavehpc::core::reconstruct_gather(pyr, fp, mode);
        const auto threaded = wavehpc::wavelet::reconstruct_parallel(pyr, fp, pool, mode);
        EXPECT_EQ(max_abs_diff(serial, threaded), 0.0) << "mode " << int(mode);
    }
}

}  // namespace
