#include "core/kernels.hpp"

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <string>

#include "base/knob.hpp"

namespace wavehpc::core {

namespace {

// Column-tile width (floats) for the fused convolve column sweep: per tile
// the inner loops touch 4 output slices + 2 source slices, 6 * 512 * 4 B =
// 12 KiB, comfortably inside L1 alongside the filter taps.
constexpr std::size_t kColTile = 512;

// Process-wide programmatic override; Auto = defer to the environment.
std::atomic<DwtKernel> g_default_kernel{DwtKernel::Auto};

[[nodiscard]] DwtKernel env_kernel() {
    const std::string text = base::env_text("WAVEHPC_DWT_KERNEL");
    DwtKernel k = DwtKernel::Convolve;
    if (!text.empty()) {
        // Unrecognized values keep the safe default (documented in README).
        (void)parse_dwt_kernel(text, k);
        if (k == DwtKernel::Auto) k = DwtKernel::Convolve;
    }
    return k;
}

void require_even(std::size_t n, const char* what) {
    if (n == 0 || n % 2 != 0) {
        throw std::invalid_argument(std::string("kernels: ") + what +
                                    " must be even and non-zero");
    }
}

// ---------------------------------------------------------------------------
// Lifting plan construction: peel plane rotations off the analysis filter
// functionals in double precision, then verify by regenerating the filter.
//
// State: after stage t the lattice outputs are shift-invariant functionals
//   u_t[i] = sum_j pU[j] a[i+j] + qU[j] b[i+j]   (likewise pV/qV for v_t)
// over the polyphase streams a[i] = x[2k+2i], b[i] = x[2k+2i+1]. The
// forward recursion (see kernels.hpp) grows the support by one per stage;
// peeling inverts it one rotation at a time, choosing the angle that
// annihilates the tail coefficient.
// ---------------------------------------------------------------------------

struct Lattice {
    std::vector<double> c;  // cos(theta_t)
    std::vector<double> s;  // sin(theta_t)
};

// Forward-regenerate the functional coefficient arrays from a lattice and
// return the max abs deviation from the target polyphase coefficients.
[[nodiscard]] double lattice_residual(const Lattice& lat, const std::vector<double>& tpU,
                                      const std::vector<double>& tqU,
                                      const std::vector<double>& tpV,
                                      const std::vector<double>& tqV) {
    const std::size_t m = lat.c.size();
    std::vector<double> pU{lat.c[0]}, qU{lat.s[0]}, pV{-lat.s[0]}, qV{lat.c[0]};
    for (std::size_t t = 1; t < m; ++t) {
        std::vector<double> npU(t + 1, 0.0), nqU(t + 1, 0.0), npV(t + 1, 0.0),
            nqV(t + 1, 0.0);
        const double c = lat.c[t];
        const double s = lat.s[t];
        for (std::size_t j = 0; j <= t; ++j) {
            const double pu = j < t ? pU[j] : 0.0;
            const double qu = j < t ? qU[j] : 0.0;
            const double pv = j > 0 ? pV[j - 1] : 0.0;
            const double qv = j > 0 ? qV[j - 1] : 0.0;
            npU[j] = c * pu + s * pv;
            nqU[j] = c * qu + s * qv;
            npV[j] = -s * pu + c * pv;
            nqV[j] = -s * qu + c * qv;
        }
        pU = std::move(npU);
        qU = std::move(nqU);
        pV = std::move(npV);
        qV = std::move(nqV);
    }
    double worst = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
        worst = std::max(worst, std::abs(pU[j] - tpU[j]));
        worst = std::max(worst, std::abs(qU[j] - tqU[j]));
        worst = std::max(worst, std::abs(pV[j] - tpV[j]));
        worst = std::max(worst, std::abs(qV[j] - tqV[j]));
    }
    return worst;
}

// Attempt the peeling for one output-sign combination. Returns the residual
// of the forward verification (infinity when the peeling degenerates).
[[nodiscard]] double try_factorize(const FilterPair& fp, double sign_lo, double sign_hi,
                                   Lattice& out) {
    const auto fl = fp.low();
    const auto fh = fp.high();
    const std::size_t m = fl.size() / 2;
    std::vector<double> pU(m), qU(m), pV(m), qV(m);
    for (std::size_t j = 0; j < m; ++j) {
        pU[j] = sign_lo * static_cast<double>(fl[2 * j]);
        qU[j] = sign_lo * static_cast<double>(fl[2 * j + 1]);
        pV[j] = sign_hi * static_cast<double>(fh[2 * j]);
        qV[j] = sign_hi * static_cast<double>(fh[2 * j + 1]);
    }
    const std::vector<double> tpU = pU, tqU = qU, tpV = pV, tqV = qV;

    Lattice lat;
    lat.c.assign(m, 1.0);
    lat.s.assign(m, 0.0);
    for (std::size_t t = m; t-- > 1;) {
        // Tail annihilation: (c, s) proportional to (pV[t], pU[t]) zeroes
        // the stage-t coefficient of the inverted U functional.
        const double r = std::hypot(pV[t], pU[t]);
        if (r < 1e-12) return std::numeric_limits<double>::infinity();
        const double c = pV[t] / r;
        const double s = pU[t] / r;
        lat.c[t] = c;
        lat.s[t] = s;
        std::vector<double> npU(t), nqU(t), npV(t), nqV(t);
        for (std::size_t j = 0; j < t; ++j) {
            npU[j] = c * pU[j] - s * pV[j];
            nqU[j] = c * qU[j] - s * qV[j];
            npV[j] = s * pU[j + 1] + c * pV[j + 1];
            nqV[j] = s * qU[j + 1] + c * qV[j + 1];
        }
        pU = std::move(npU);
        qU = std::move(nqU);
        pV = std::move(npV);
        qV = std::move(nqV);
    }
    // Stage 0 must be a pure rotation: (pU, qU) = (c, s), (pV, qV) = (-s, c).
    lat.c[0] = pU[0];
    lat.s[0] = qU[0];
    // The head-zero conditions of every peeled stage, the rotation form of
    // stage 0, and the sign choice are all checked at once by regenerating
    // the filter from the lattice.
    const double residual = lattice_residual(lat, tpU, tqU, tpV, tqV);
    out = std::move(lat);
    return residual;
}

}  // namespace

const char* to_string(DwtKernel k) noexcept {
    switch (k) {
        case DwtKernel::Auto:
            return "auto";
        case DwtKernel::Convolve:
            return "convolve";
        case DwtKernel::Lifting:
            return "lifting";
    }
    return "convolve";  // unreachable
}

bool parse_dwt_kernel(std::string_view text, DwtKernel& out) noexcept {
    if (text == "auto") {
        out = DwtKernel::Auto;
    } else if (text == "convolve") {
        out = DwtKernel::Convolve;
    } else if (text == "lifting") {
        out = DwtKernel::Lifting;
    } else {
        return false;
    }
    return true;
}

DwtKernel default_dwt_kernel() noexcept {
    const DwtKernel k = g_default_kernel.load(std::memory_order_relaxed);
    return k == DwtKernel::Auto ? env_kernel() : k;
}

void set_default_dwt_kernel(DwtKernel k) noexcept {
    g_default_kernel.store(k, std::memory_order_relaxed);
}

DwtKernel resolve_dwt_kernel(DwtKernel requested, const FilterPair& fp) {
    DwtKernel k = requested == DwtKernel::Auto ? default_dwt_kernel() : requested;
    if (k == DwtKernel::Lifting && !build_lifting_plan(fp).valid) {
        k = DwtKernel::Convolve;
    }
    return k;
}

LiftingPlan build_lifting_plan(const FilterPair& fp) {
    LiftingPlan plan;
    const std::size_t taps = fp.low().size();
    if (taps < 2 || taps % 2 != 0) return plan;
    const std::size_t m = taps / 2;

    // The lattice output signs are a convention, not a degree of freedom we
    // control: try the four combinations and keep the one whose forward
    // regeneration reproduces the registered filter bank.
    constexpr double kResidualTol = 1e-5;  // filter taps are floats (~6e-8 ulp)
    Lattice best;
    double best_sign_lo = 1.0;
    double best_sign_hi = 1.0;
    double best_residual = std::numeric_limits<double>::infinity();
    for (const double sign_lo : {1.0, -1.0}) {
        for (const double sign_hi : {1.0, -1.0}) {
            Lattice lat;
            const double residual = try_factorize(fp, sign_lo, sign_hi, lat);
            if (residual < best_residual) {
                best_residual = residual;
                best = lat;
                best_sign_lo = sign_lo;
                best_sign_hi = sign_hi;
            }
        }
    }
    if (best_residual > kResidualTol) return plan;  // not lattice-factorizable

    // Fold the rotations into shear form: rotation = cos * [[1, T], [-T, 1]]
    // with T = tan(theta); the cosines accumulate into the output scales.
    double prod_c = 1.0;
    plan.shear.resize(m);
    for (std::size_t t = 0; t < m; ++t) {
        // A near-90-degree stage would blow the shear coefficient up and
        // lose float precision to cancellation; refuse and let the caller
        // fall back to convolution.
        if (std::abs(best.c[t]) < 1e-2) return plan;
        const double shear = best.s[t] / best.c[t];
        if (std::abs(shear) > 64.0) return plan;
        plan.shear[t] = static_cast<float>(shear);
        prod_c *= best.c[t];
    }
    plan.scale_lo = static_cast<float>(best_sign_lo * prod_c);
    plan.scale_hi = static_cast<float>(best_sign_hi * prod_c);
    plan.valid = true;
    return plan;
}

// ---------------------------------------------------------------------------
// Fused convolve kernels (the golden path). These are the loop bodies the
// threads backend proved bit-identical to the unfused convolve_decimate_*
// reference; every backend now shares them.
// ---------------------------------------------------------------------------

namespace {

// One tap of the fused column accumulation. Kept as a standalone function
// because GCC only tracks __restrict reliably on parameters: the six streams
// (four destination subband rows, two source rows) are distinct allocations,
// and making that visible here is what lets the loop vectorize.
void accumulate_tap(float* __restrict dll, float* __restrict dlh, float* __restrict dhl,
                    float* __restrict dhh, const float* __restrict sl,
                    const float* __restrict sh, float wl, float wh, std::size_t c0,
                    std::size_t c1) {
    for (std::size_t c = c0; c < c1; ++c) {
        dll[c] += wl * sl[c];
        dlh[c] += wh * sl[c];
        dhl[c] += wl * sh[c];
        dhh[c] += wh * sh[c];
    }
}

void convolve_row(std::span<const float> src, const FilterPair& fp, std::span<float> dlo,
                  std::span<float> dhi, BoundaryMode mode) {
    const std::size_t cols = src.size();
    const std::size_t half = cols / 2;
    const auto fl = fp.low();
    const auto fh = fp.high();
    const std::size_t taps = fl.size();
    for (std::size_t k = 0; k < half; ++k) {
        float acc_lo = 0.0F;
        float acc_hi = 0.0F;
        if (2 * k + taps <= cols) {
            const float* base = src.data() + 2 * k;
            for (std::size_t n = 0; n < taps; ++n) {
                acc_lo += fl[n] * base[n];
                acc_hi += fh[n] * base[n];
            }
        } else {
            for (std::size_t n = 0; n < taps; ++n) {
                const std::size_t idx =
                    extend_index(static_cast<std::ptrdiff_t>(2 * k + n), cols, mode);
                if (idx >= cols) continue;  // ZeroPad outside
                acc_lo += fl[n] * src[idx];
                acc_hi += fh[n] * src[idx];
            }
        }
        dlo[k] = acc_lo;
        dhi[k] = acc_hi;
    }
}

void convolve_cols_range(const ImageF& low_rows, const ImageF& high_rows,
                         const FilterPair& fp, ImageF& ll, ImageF& lh, ImageF& hl,
                         ImageF& hh, BoundaryMode mode, std::size_t k0,
                         std::size_t k1) {
    const std::size_t rows = low_rows.rows();
    const std::size_t cols = low_rows.cols();
    const auto fl = fp.low();
    const auto fh = fp.high();
    const std::size_t taps = fl.size();
    for (std::size_t k = k0; k < k1; ++k) {
        float* dll = ll.row(k).data();
        float* dlh = lh.row(k).data();
        float* dhl = hl.row(k).data();
        float* dhh = hh.row(k).data();
        for (std::size_t c0 = 0; c0 < cols; c0 += kColTile) {
            const std::size_t c1 = std::min(cols, c0 + kColTile);
            for (std::size_t n = 0; n < taps; ++n) {
                const std::size_t idx = extend_index(
                    static_cast<std::ptrdiff_t>(2 * k + n), rows, mode);
                if (idx >= rows) continue;  // ZeroPad sentinel
                accumulate_tap(dll, dlh, dhl, dhh, low_rows.row(idx).data(),
                               high_rows.row(idx).data(), fl[n], fh[n], c0, c1);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Lifting kernels. All loops are unit-stride over distinct buffers; the
// in-place stage updates read v[i+1] before writing v[i] (anti-dependence
// of distance one), which auto-vectorizes cleanly.
// ---------------------------------------------------------------------------

// taps == 2: the lattice collapses to a single rotation whose entries ARE
// the filter coefficients, so it is executed in rotation form straight from
// the filter floats — the identical multiply/add sequence as the convolve
// kernel, hence bit-exact (the window never reaches the boundary either).
void haar_row(const float* __restrict x, std::size_t half, float fl0, float fl1,
              float fh0, float fh1, float* __restrict lo, float* __restrict hi) {
    for (std::size_t k = 0; k < half; ++k) {
        const float x0 = x[2 * k];
        const float x1 = x[2 * k + 1];
        float acc_lo = fl0 * x0;
        acc_lo += fl1 * x1;
        float acc_hi = fh0 * x0;
        acc_hi += fh1 * x1;
        lo[k] = acc_lo;
        hi[k] = acc_hi;
    }
}

void haar_col(const float* __restrict e, const float* __restrict o, std::size_t w,
              float f0, float f1, float g0, float g1, float* __restrict dlo,
              float* __restrict dhi) {
    for (std::size_t c = 0; c < w; ++c) {
        float acc_lo = f0 * e[c];
        acc_lo += f1 * o[c];
        float acc_hi = g0 * e[c];
        acc_hi += g1 * o[c];
        dlo[c] = acc_lo;
        dhi[c] = acc_hi;
    }
}

void lift_stage(float* __restrict u, float* __restrict v, std::size_t len, float t) {
    for (std::size_t i = 0; i < len; ++i) {
        const float a = u[i];
        const float b = v[i + 1];
        u[i] = a + t * b;
        v[i] = b - t * a;
    }
}

void lift_final(const float* __restrict u, const float* __restrict v, std::size_t half,
                float t, float sl, float sh, float* __restrict lo,
                float* __restrict hi) {
    for (std::size_t k = 0; k < half; ++k) {
        const float a = u[k];
        const float b = v[k + 1];
        lo[k] = sl * (a + t * b);
        hi[k] = sh * (b - t * a);
    }
}

/// Extended sample of the signal at (possibly out-of-range) index `i`.
[[nodiscard]] inline float ext_sample(std::span<const float> x, std::ptrdiff_t i,
                                      BoundaryMode mode) noexcept {
    const std::size_t idx = extend_index(i, x.size(), mode);
    return idx < x.size() ? x[idx] : 0.0F;
}

// One row (or one column signal) through the full lifting ladder, m >= 2.
// u/v are caller scratch of at least half + m - 1 floats each.
void lifting_row(std::span<const float> x, const LiftingPlan& plan,
                 std::span<float> lo, std::span<float> hi, BoundaryMode mode,
                 float* __restrict u, float* __restrict v) {
    const std::size_t n = x.size();
    const std::size_t half = n / 2;
    const std::size_t m = plan.stages();
    const std::size_t ext = m - 1;
    const float t0 = plan.shear[0];
    // Stage 0, fused with the polyphase split (and the boundary extension
    // for the trailing `ext` pairs).
    {
        const float* __restrict xs = x.data();
        for (std::size_t i = 0; i < half; ++i) {
            const float a = xs[2 * i];
            const float b = xs[2 * i + 1];
            u[i] = a + t0 * b;
            v[i] = b - t0 * a;
        }
    }
    for (std::size_t j = 0; j < ext; ++j) {
        const std::size_t i = half + j;
        const float a = ext_sample(x, static_cast<std::ptrdiff_t>(2 * i), mode);
        const float b = ext_sample(x, static_cast<std::ptrdiff_t>(2 * i + 1), mode);
        u[i] = a + t0 * b;
        v[i] = b - t0 * a;
    }
    // Middle stages, in place over the strip.
    for (std::size_t t = 1; t + 1 < m; ++t) {
        lift_stage(u, v, half + ext - t, plan.shear[t]);
    }
    // Last stage fused with the output scaling.
    lift_final(u, v, half, plan.shear[m - 1], plan.scale_lo, plan.scale_hi, lo.data(),
               hi.data());
}

/// Source row of the even (parity == 0) or odd (parity == 1) polyphase
/// plane at plane index `i`, mapped through the boundary when 2i+parity
/// falls outside; returns nullptr for a ZeroPad row of zeros.
[[nodiscard]] const float* polyphase_row(const ImageF& src, std::size_t i, int parity,
                                         BoundaryMode mode) noexcept {
    const std::size_t idx = extend_index(
        static_cast<std::ptrdiff_t>(2 * i) + parity, src.rows(), mode);
    return idx < src.rows() ? src.row(idx).data() : nullptr;
}

void lift_col_stage0(const float* __restrict e, const float* __restrict o,
                     std::size_t w, float t0, float* __restrict u,
                     float* __restrict v) {
    for (std::size_t c = 0; c < w; ++c) {
        const float a = e[c];
        const float b = o[c];
        u[c] = a + t0 * b;
        v[c] = b - t0 * a;
    }
}

// Rolling column-stage kernels for the single-pass sweep: a stage consumes
// v_{t-1}[li+1] from `vprev` and leaves v_{t-1}[li] there for the next
// (descending) iteration.
void lift_col_roll(float* __restrict u, float* __restrict v,
                   float* __restrict vprev, std::size_t w, float t) {
    for (std::size_t c = 0; c < w; ++c) {
        const float a = u[c];
        const float b = vprev[c];
        u[c] = a + t * b;
        const float keep = v[c];
        v[c] = b - t * a;
        vprev[c] = keep;
    }
}

void lift_col_final_roll(const float* __restrict u, const float* __restrict v,
                         float* __restrict vprev, std::size_t w, float t, float sl,
                         float sh, float* __restrict dlo, float* __restrict dhi) {
    for (std::size_t c = 0; c < w; ++c) {
        const float a = u[c];
        const float b = vprev[c];
        dlo[c] = sl * (a + t * b);
        dhi[c] = sh * (b - t * a);
        vprev[c] = v[c];
    }
}

// Column lifting for one source plane over output rows [k0, k1): writes
// out_lo (low-pass columns) and out_hi (high-pass columns). Outputs are
// written, not accumulated, and every output row k depends only on source
// rows 2k .. 2k+taps-1, so any range split reproduces the serial result
// bit for bit.
void lifting_cols_plane(const ImageF& src, const LiftingPlan& plan, ImageF& out_lo,
                        ImageF& out_hi, BoundaryMode mode, std::size_t k0,
                        std::size_t k1) {
    // Single descending sweep with rolling per-stage state. Iteration li
    // computes stage 0 of polyphase strip li, then advances each middle
    // stage t using v_{t-1}[li+1] stashed in vprev[t-1] by iteration li+1,
    // and emits output row li once every stage is available. All state
    // between the source read and the output write is m+1 rows (~L1), so
    // the pass streams the source once instead of once per stage. Each
    // output element evaluates exactly the expression tree of the naive
    // stage-by-stage ladder, so any [k0, k1) split is bit-identical.
    const std::size_t cols = src.cols();
    const std::size_t m = plan.stages();
    const std::size_t ext = m - 1;
    const std::size_t strips_end = k1 + ext;  // strip rows k0 .. strips_end-1
    thread_local std::vector<float> scratch;
    if (scratch.size() < (m + 1) * cols) scratch.resize((m + 1) * cols);
    float* const uwork = scratch.data() + ext * cols;
    float* const vwork = uwork + cols;
    const auto vprev = [&](std::size_t t) { return scratch.data() + t * cols; };
    std::vector<float> zeros;  // lazily sized; ZeroPad rows only
    for (std::size_t li = strips_end; li-- > k0;) {
        const float* e = polyphase_row(src, li, 0, mode);
        const float* o = polyphase_row(src, li, 1, mode);
        if (e == nullptr || o == nullptr) {
            if (zeros.size() != cols) zeros.assign(cols, 0.0F);
            if (e == nullptr) e = zeros.data();
            if (o == nullptr) o = zeros.data();
        }
        lift_col_stage0(e, o, cols, plan.shear[0], uwork, vwork);
        std::size_t t = 1;
        for (; t + 1 < m && li + t < strips_end; ++t) {
            lift_col_roll(uwork, vwork, vprev(t - 1), cols, plan.shear[t]);
        }
        if (li < k1) {
            lift_col_final_roll(uwork, vwork, vprev(m - 2), cols, plan.shear[m - 1],
                                plan.scale_lo, plan.scale_hi, out_lo.row(li).data(),
                                out_hi.row(li).data());
        } else {
            // Priming strip (li >= k1): no output yet; seed the deepest
            // completed stage's v for the next iteration.
            float* const dst = vprev(t - 1);
            for (std::size_t c = 0; c < cols; ++c) dst[c] = vwork[c];
        }
    }
}

// ---------------------------------------------------------------------------
// Range/tile variants (ISSUE 9). Each reuses the exact loop bodies above
// (accumulate_tap, haar_row/haar_col, lift_stage, lift_final, the rolling
// column kernels), so the per-coefficient float expression trees — and
// therefore the bits — match the full-plane sweeps.
// ---------------------------------------------------------------------------

void convolve_row_range(std::span<const float> src, const FilterPair& fp,
                        std::span<float> dlo, std::span<float> dhi, BoundaryMode mode,
                        std::size_t k0, std::size_t k1) {
    const std::size_t cols = src.size();
    const auto fl = fp.low();
    const auto fh = fp.high();
    const std::size_t taps = fl.size();
    for (std::size_t k = k0; k < k1; ++k) {
        float acc_lo = 0.0F;
        float acc_hi = 0.0F;
        if (2 * k + taps <= cols) {
            const float* base = src.data() + 2 * k;
            for (std::size_t n = 0; n < taps; ++n) {
                acc_lo += fl[n] * base[n];
                acc_hi += fh[n] * base[n];
            }
        } else {
            for (std::size_t n = 0; n < taps; ++n) {
                const std::size_t idx =
                    extend_index(static_cast<std::ptrdiff_t>(2 * k + n), cols, mode);
                if (idx >= cols) continue;  // ZeroPad outside
                acc_lo += fl[n] * src[idx];
                acc_hi += fh[n] * src[idx];
            }
        }
        dlo[k - k0] = acc_lo;
        dhi[k - k0] = acc_hi;
    }
}

// Lifting ladder over the pair window [k0, k1+ext): stage-0 values are
// seeded from the global signal (direct loads while the pair is in range,
// ext_sample past the edge — exactly lifting_row's split at i == half),
// then the shrinking middle stages and the fused final stage run on the
// segment. Output k reads only pairs k..k+ext, all inside the window, so
// every intermediate equals its monolithic counterpart bit for bit.
void lifting_row_range(std::span<const float> x, const LiftingPlan& plan,
                       std::span<float> lo, std::span<float> hi, BoundaryMode mode,
                       std::size_t k0, std::size_t k1) {
    const std::size_t half = x.size() / 2;
    const std::size_t m = plan.stages();
    const std::size_t ext = m - 1;
    const std::size_t seg = k1 - k0;
    const float t0 = plan.shear[0];
    thread_local std::vector<float> scratch;
    if (scratch.size() < 2 * (seg + ext)) scratch.resize(2 * (seg + ext));
    float* const u = scratch.data();
    float* const v = u + (seg + ext);
    const float* __restrict xs = x.data();
    const std::size_t direct = std::min(seg + ext, half - std::min(half, k0));
    for (std::size_t j = 0; j < direct; ++j) {
        const std::size_t i = k0 + j;
        const float a = xs[2 * i];
        const float b = xs[2 * i + 1];
        u[j] = a + t0 * b;
        v[j] = b - t0 * a;
    }
    for (std::size_t j = direct; j < seg + ext; ++j) {
        const std::size_t i = k0 + j;
        const float a = ext_sample(x, static_cast<std::ptrdiff_t>(2 * i), mode);
        const float b = ext_sample(x, static_cast<std::ptrdiff_t>(2 * i + 1), mode);
        u[j] = a + t0 * b;
        v[j] = b - t0 * a;
    }
    for (std::size_t t = 1; t + 1 < m; ++t) {
        lift_stage(u, v, seg + ext - t, plan.shear[t]);
    }
    lift_final(u, v, seg, plan.shear[m - 1], plan.scale_lo, plan.scale_hi, lo.data(),
               hi.data());
}

void convolve_cols_tile(const RowAccessor& low_row, const RowAccessor& high_row,
                        std::size_t plane_rows, std::size_t width,
                        const FilterPair& fp, ImageF& ll, ImageF& lh, ImageF& hl,
                        ImageF& hh, BoundaryMode mode, std::size_t k0,
                        std::size_t k1) {
    const auto fl = fp.low();
    const auto fh = fp.high();
    const std::size_t taps = fl.size();
    for (std::size_t k = k0; k < k1; ++k) {
        float* dll = ll.row(k - k0).data();
        float* dlh = lh.row(k - k0).data();
        float* dhl = hl.row(k - k0).data();
        float* dhh = hh.row(k - k0).data();
        for (std::size_t c0 = 0; c0 < width; c0 += kColTile) {
            const std::size_t c1 = std::min(width, c0 + kColTile);
            for (std::size_t n = 0; n < taps; ++n) {
                const std::size_t idx = extend_index(
                    static_cast<std::ptrdiff_t>(2 * k + n), plane_rows, mode);
                if (idx >= plane_rows) continue;  // ZeroPad sentinel
                accumulate_tap(dll, dlh, dhl, dhh, low_row(idx), high_row(idx), fl[n],
                               fh[n], c0, c1);
            }
        }
    }
}

/// Accessor-backed polyphase row (the tile twin of polyphase_row).
[[nodiscard]] const float* tile_polyphase_row(const RowAccessor& row,
                                              std::size_t plane_rows, std::size_t i,
                                              int parity, BoundaryMode mode) {
    const std::size_t idx =
        extend_index(static_cast<std::ptrdiff_t>(2 * i) + parity, plane_rows, mode);
    return idx < plane_rows ? row(idx) : nullptr;
}

// Accessor-backed twin of lifting_cols_plane: the same descending rolling
// sweep over polyphase strips, restricted to a `width`-column segment and
// writing outputs at local row li - k0. Every column is independent, so
// restricting the width changes nothing per element.
void lifting_cols_tile(const RowAccessor& src_row, std::size_t plane_rows,
                       std::size_t width, const LiftingPlan& plan, ImageF& out_lo,
                       ImageF& out_hi, BoundaryMode mode, std::size_t k0,
                       std::size_t k1) {
    const std::size_t m = plan.stages();
    const std::size_t ext = m - 1;
    const std::size_t strips_end = k1 + ext;  // strip rows k0 .. strips_end-1
    thread_local std::vector<float> scratch;
    if (scratch.size() < (m + 1) * width) scratch.resize((m + 1) * width);
    float* const uwork = scratch.data() + ext * width;
    float* const vwork = uwork + width;
    const auto vprev = [&](std::size_t t) { return scratch.data() + t * width; };
    std::vector<float> zeros;  // lazily sized; ZeroPad rows only
    for (std::size_t li = strips_end; li-- > k0;) {
        const float* e = tile_polyphase_row(src_row, plane_rows, li, 0, mode);
        const float* o = tile_polyphase_row(src_row, plane_rows, li, 1, mode);
        if (e == nullptr || o == nullptr) {
            if (zeros.size() != width) zeros.assign(width, 0.0F);
            if (e == nullptr) e = zeros.data();
            if (o == nullptr) o = zeros.data();
        }
        lift_col_stage0(e, o, width, plan.shear[0], uwork, vwork);
        std::size_t t = 1;
        for (; t + 1 < m && li + t < strips_end; ++t) {
            lift_col_roll(uwork, vwork, vprev(t - 1), width, plan.shear[t]);
        }
        if (li < k1) {
            lift_col_final_roll(uwork, vwork, vprev(m - 2), width, plan.shear[m - 1],
                                plan.scale_lo, plan.scale_hi,
                                out_lo.row(li - k0).data(), out_hi.row(li - k0).data());
        } else {
            float* const dst = vprev(t - 1);
            for (std::size_t c = 0; c < width; ++c) dst[c] = vwork[c];
        }
    }
}

}  // namespace

void analyze_1d(std::span<const float> x, const FilterPair& fp, std::span<float> lo,
                std::span<float> hi, BoundaryMode mode, DwtKernel kernel) {
    require_even(x.size(), "signal length");
    const std::size_t half = x.size() / 2;
    if (lo.size() != half || hi.size() != half) {
        throw std::invalid_argument("analyze_1d: band size must be n/2");
    }
    if (kernel == DwtKernel::Auto) kernel = default_dwt_kernel();
    if (kernel == DwtKernel::Lifting) {
        const auto fl = fp.low();
        const auto fh = fp.high();
        if (fl.size() == 2) {
            haar_row(x.data(), half, fl[0], fl[1], fh[0], fh[1], lo.data(), hi.data());
            return;
        }
        const LiftingPlan plan = build_lifting_plan(fp);
        if (plan.valid) {
            std::vector<float> u(half + plan.stages() - 1);
            std::vector<float> v(half + plan.stages() - 1);
            lifting_row(x, plan, lo, hi, mode, u.data(), v.data());
            return;
        }
    }
    convolve_row(x, fp, lo, hi, mode);
}

void analyze_rows_range(const ImageF& in, const FilterPair& fp, ImageF& lo, ImageF& hi,
                        BoundaryMode mode, DwtKernel kernel, std::size_t r0,
                        std::size_t r1) {
    require_even(in.cols(), "column count");
    const std::size_t half = in.cols() / 2;
    if (lo.rows() != in.rows() || lo.cols() != half || hi.rows() != in.rows() ||
        hi.cols() != half) {
        throw std::invalid_argument("analyze_rows_range: bad band shape");
    }
    if (kernel == DwtKernel::Auto) kernel = default_dwt_kernel();
    if (kernel == DwtKernel::Lifting) {
        const auto fl = fp.low();
        const auto fh = fp.high();
        if (fl.size() == 2) {
            for (std::size_t r = r0; r < r1; ++r) {
                haar_row(in.row(r).data(), half, fl[0], fl[1], fh[0], fh[1],
                         lo.row(r).data(), hi.row(r).data());
            }
            return;
        }
        const LiftingPlan plan = build_lifting_plan(fp);
        if (plan.valid) {
            std::vector<float> u(half + plan.stages() - 1);
            std::vector<float> v(half + plan.stages() - 1);
            for (std::size_t r = r0; r < r1; ++r) {
                lifting_row(in.row(r), plan, lo.row(r), hi.row(r), mode, u.data(),
                            v.data());
            }
            return;
        }
    }
    for (std::size_t r = r0; r < r1; ++r) {
        convolve_row(in.row(r), fp, lo.row(r), hi.row(r), mode);
    }
}

void analyze_cols_range(const ImageF& low_rows, const ImageF& high_rows,
                        const FilterPair& fp, ImageF& ll, ImageF& lh, ImageF& hl,
                        ImageF& hh, BoundaryMode mode, DwtKernel kernel,
                        std::size_t k0, std::size_t k1) {
    require_even(low_rows.rows(), "row count");
    const std::size_t half = low_rows.rows() / 2;
    const std::size_t cols = low_rows.cols();
    if (high_rows.rows() != low_rows.rows() || high_rows.cols() != cols) {
        throw std::invalid_argument("analyze_cols_range: band shapes differ");
    }
    for (const ImageF* out : {&ll, &lh, &hl, &hh}) {
        if (out->rows() != half || out->cols() != cols) {
            throw std::invalid_argument("analyze_cols_range: bad output shape");
        }
    }
    if (kernel == DwtKernel::Auto) kernel = default_dwt_kernel();
    if (kernel == DwtKernel::Lifting) {
        const auto fl = fp.low();
        const auto fh = fp.high();
        if (fl.size() == 2) {
            for (std::size_t k = k0; k < k1; ++k) {
                const float* le = low_rows.row(2 * k).data();
                const float* lodd = low_rows.row(2 * k + 1).data();
                const float* he = high_rows.row(2 * k).data();
                const float* hodd = high_rows.row(2 * k + 1).data();
                haar_col(le, lodd, cols, fl[0], fl[1], fh[0], fh[1], ll.row(k).data(),
                         lh.row(k).data());
                haar_col(he, hodd, cols, fl[0], fl[1], fh[0], fh[1], hl.row(k).data(),
                         hh.row(k).data());
            }
            return;
        }
        const LiftingPlan plan = build_lifting_plan(fp);
        if (plan.valid) {
            lifting_cols_plane(low_rows, plan, ll, lh, mode, k0, k1);
            lifting_cols_plane(high_rows, plan, hl, hh, mode, k0, k1);
            return;
        }
    }
    convolve_cols_range(low_rows, high_rows, fp, ll, lh, hl, hh, mode, k0, k1);
}

void analyze_cols_ext_range(const ImageF& low_ext, const ImageF& high_ext,
                            const FilterPair& fp, ImageF& ll, ImageF& lh, ImageF& hl,
                            ImageF& hh, std::size_t k0, std::size_t k1) {
    const std::size_t cols = low_ext.cols();
    const auto fl = fp.low();
    const auto fh = fp.high();
    const std::size_t taps = fl.size();
    for (std::size_t k = k0; k < k1; ++k) {
        float* dll = ll.row(k).data();
        float* dlh = lh.row(k).data();
        float* dhl = hl.row(k).data();
        float* dhh = hh.row(k).data();
        for (std::size_t c0 = 0; c0 < cols; c0 += kColTile) {
            const std::size_t c1 = std::min(cols, c0 + kColTile);
            for (std::size_t n = 0; n < taps; ++n) {
                const std::size_t src_row = 2 * k + n;  // pre-extended: no mapping
                accumulate_tap(dll, dlh, dhl, dhh, low_ext.row(src_row).data(),
                               high_ext.row(src_row).data(), fl[n], fh[n], c0, c1);
            }
        }
    }
}

void analyze_1d_range(std::span<const float> x, const FilterPair& fp,
                      std::span<float> lo, std::span<float> hi, BoundaryMode mode,
                      DwtKernel kernel, std::size_t k0, std::size_t k1) {
    require_even(x.size(), "signal length");
    const std::size_t half = x.size() / 2;
    if (k0 > k1 || k1 > half) {
        throw std::invalid_argument("analyze_1d_range: bad output range");
    }
    if (lo.size() != k1 - k0 || hi.size() != k1 - k0) {
        throw std::invalid_argument("analyze_1d_range: band size must be k1-k0");
    }
    if (k0 == k1) return;
    if (kernel == DwtKernel::Auto) kernel = default_dwt_kernel();
    if (kernel == DwtKernel::Lifting) {
        const auto fl = fp.low();
        const auto fh = fp.high();
        if (fl.size() == 2) {
            // Haar windows never reach the boundary: x + 2*k0 re-bases the
            // same in-range loads.
            haar_row(x.data() + 2 * k0, k1 - k0, fl[0], fl[1], fh[0], fh[1], lo.data(),
                     hi.data());
            return;
        }
        const LiftingPlan plan = build_lifting_plan(fp);
        if (plan.valid) {
            lifting_row_range(x, plan, lo, hi, mode, k0, k1);
            return;
        }
    }
    convolve_row_range(x, fp, lo, hi, mode, k0, k1);
}

void analyze_cols_tile(const RowAccessor& low_row, const RowAccessor& high_row,
                       std::size_t plane_rows, std::size_t width,
                       const FilterPair& fp, ImageF& ll, ImageF& lh, ImageF& hl,
                       ImageF& hh, BoundaryMode mode, DwtKernel kernel,
                       std::size_t k0, std::size_t k1) {
    require_even(plane_rows, "row count");
    const std::size_t half = plane_rows / 2;
    if (k0 > k1 || k1 > half) {
        throw std::invalid_argument("analyze_cols_tile: bad output range");
    }
    for (const ImageF* out : {&ll, &lh, &hl, &hh}) {
        if (out->rows() != k1 - k0 || out->cols() != width) {
            throw std::invalid_argument("analyze_cols_tile: bad output shape");
        }
    }
    if (k0 == k1) return;
    if (kernel == DwtKernel::Auto) kernel = default_dwt_kernel();
    if (kernel == DwtKernel::Lifting) {
        const auto fl = fp.low();
        const auto fh = fp.high();
        if (fl.size() == 2) {
            for (std::size_t k = k0; k < k1; ++k) {
                haar_col(low_row(2 * k), low_row(2 * k + 1), width, fl[0], fl[1],
                         fh[0], fh[1], ll.row(k - k0).data(), lh.row(k - k0).data());
                haar_col(high_row(2 * k), high_row(2 * k + 1), width, fl[0], fl[1],
                         fh[0], fh[1], hl.row(k - k0).data(), hh.row(k - k0).data());
            }
            return;
        }
        const LiftingPlan plan = build_lifting_plan(fp);
        if (plan.valid) {
            lifting_cols_tile(low_row, plane_rows, width, plan, ll, lh, mode, k0, k1);
            lifting_cols_tile(high_row, plane_rows, width, plan, hl, hh, mode, k0, k1);
            return;
        }
    }
    convolve_cols_tile(low_row, high_row, plane_rows, width, fp, ll, lh, hl, hh, mode,
                       k0, k1);
}

void analyze_level(const ImageF& in, const FilterPair& fp, ImageF& ll, ImageF& lh,
                   ImageF& hl, ImageF& hh, BoundaryMode mode, DwtKernel kernel) {
    require_even(in.rows(), "row count");
    require_even(in.cols(), "column count");
    const std::size_t half_r = in.rows() / 2;
    const std::size_t half_c = in.cols() / 2;
    if (kernel == DwtKernel::Auto) kernel = default_dwt_kernel();
    ImageF low_rows(in.rows(), half_c);
    ImageF high_rows(in.rows(), half_c);
    analyze_rows_range(in, fp, low_rows, high_rows, mode, kernel, 0, in.rows());
    // Freshly constructed images are zero-filled, which the convolve
    // accumulation path relies on.
    ll = ImageF(half_r, half_c);
    lh = ImageF(half_r, half_c);
    hl = ImageF(half_r, half_c);
    hh = ImageF(half_r, half_c);
    analyze_cols_range(low_rows, high_rows, fp, ll, lh, hl, hh, mode, kernel, 0,
                       half_r);
}

}  // namespace wavehpc::core
