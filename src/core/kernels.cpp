#include "core/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <string>

#include "base/knob.hpp"

namespace wavehpc::core {

namespace {

// Process-wide programmatic override; Auto = defer to the environment.
std::atomic<DwtKernel> g_default_kernel{DwtKernel::Auto};

// Unset or empty keeps Convolve; an unknown name throws like every
// base::knob read instead of silently running a kernel nobody asked for.
[[nodiscard]] DwtKernel env_kernel() {
    const std::string text = base::env_text("WAVEHPC_DWT_KERNEL");
    DwtKernel k = DwtKernel::Convolve;
    if (!text.empty() && !parse_dwt_kernel(text, k)) {
        throw std::invalid_argument("WAVEHPC_DWT_KERNEL='" + text +
                                    "' is not one of convolve, lifting, auto");
    }
    return k == DwtKernel::Auto ? DwtKernel::Convolve : k;
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

DwtKernel default_dwt_kernel() {
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

// Every convolve output is the scalar expression tree of the historical
// convolve_decimate_* reference: an accumulator that starts at +0.0f and
// adds w[n] * x for the taps n in ascending order. Float addition is not
// associative and 0.0f + -0.0f is +0.0f, so neither the +0.0f start nor the
// tap order may be "simplified"; there is no FMA contraction because no
// -march is set. The kernel below only changes which outputs are in flight
// together, so every coefficient keeps its bits.

/// One tap of a run of outputs: the samples it reads (unit stride, one per
/// output) and its low- and high-pass weights.
struct Tap {
    const float* src;
    float wl;
    float wh;
};

// lo[j] and hi[j] for j < width from one tap list. With the tap count T a
// compile-time constant the tap loop unrolls and the compiler vectorizes
// the output loop: each SIMD lane's two accumulators stay in registers
// across every tap and each output is stored once. T == 0 takes the count
// at run time (the loop then stays scalar; same expression tree).
template <std::size_t T>
void tap_sum(const Tap* __restrict taps, std::size_t ntaps, std::size_t width,
             float* __restrict lo, float* __restrict hi) {
    const std::size_t nt = T != 0 ? T : ntaps;
    for (std::size_t j = 0; j < width; ++j) {
        float acc_lo = 0.0F;
        float acc_hi = 0.0F;
        for (std::size_t t = 0; t < nt; ++t) {
            acc_lo += taps[t].wl * taps[t].src[j];
            acc_hi += taps[t].wh * taps[t].src[j];
        }
        lo[j] = acc_lo;
        hi[j] = acc_hi;
    }
}

/// The one convolve kernel, behind both the row and the column pass:
/// instantiated for the registered Daubechies tap counts, run-time count
/// otherwise (custom banks, ZeroPad edge rows with dropped taps).
void convolve_taps(const std::vector<Tap>& taps, std::size_t width, float* lo,
                   float* hi) {
    switch (taps.size()) {
        case 2: return tap_sum<2>(taps.data(), 2, width, lo, hi);
        case 4: return tap_sum<4>(taps.data(), 4, width, lo, hi);
        case 6: return tap_sum<6>(taps.data(), 6, width, lo, hi);
        case 8: return tap_sum<8>(taps.data(), 8, width, lo, hi);
        default: return tap_sum<0>(taps.data(), taps.size(), width, lo, hi);
    }
}

// Row outputs [k0, k1) of the full signal `src`; output k lands at
// dlo[k - k0]. The interior outputs (2k + taps <= cols) split the window
// once into its even and odd halves (thread-local scratch), so tap 2t reads
// even[j + t] and tap 2t+1 reads odd[j + t], both unit-stride. The few
// right-edge outputs keep the scalar extend_index loop.
void convolve_row_range(std::span<const float> src, const FilterPair& fp,
                        std::span<float> dlo, std::span<float> dhi, BoundaryMode mode,
                        std::size_t k0, std::size_t k1) {
    const std::size_t cols = src.size();
    const auto fl = fp.low();
    const auto fh = fp.high();
    const std::size_t taps = fl.size();
    const std::size_t interior_end =
        std::clamp(cols >= taps ? (cols - taps) / 2 + 1 : 0, k0, k1);
    if (k0 < interior_end) {
        const std::size_t count = interior_end - k0;
        const std::size_t span = count + taps / 2 - 1;  // polyphase samples read
        thread_local std::vector<float> scratch;
        thread_local std::vector<Tap> list;
        if (scratch.size() < 2 * span) scratch.resize(2 * span);
        float* const even = scratch.data();
        float* const odd = even + span;
        const float* __restrict x = src.data() + 2 * k0;
        for (std::size_t i = 0; i < span; ++i) {
            even[i] = x[2 * i];
            odd[i] = x[2 * i + 1];
        }
        list.clear();
        for (std::size_t n = 0; n < taps; ++n) {
            list.push_back({(n % 2 == 0 ? even : odd) + n / 2, fl[n], fh[n]});
        }
        convolve_taps(list, count, dlo.data(), dhi.data());
    }
    for (std::size_t k = interior_end; k < k1; ++k) {
        float acc_lo = 0.0F;
        float acc_hi = 0.0F;
        for (std::size_t n = 0; n < taps; ++n) {
            const std::size_t idx =
                extend_index(static_cast<std::ptrdiff_t>(2 * k + n), cols, mode);
            if (idx >= cols) continue;  // ZeroPad outside
            acc_lo += fl[n] * src[idx];
            acc_hi += fh[n] * src[idx];
        }
        dlo[k - k0] = acc_lo;
        dhi[k - k0] = acc_hi;
    }
}

/// The convolve column pass behind all three column entry points: output
/// rows [k0, k1), written at row k - out0. Output row k reads source rows
/// 2k .. 2k+taps-1, mapped through `mode` into [0, plane_rows) with ZeroPad
/// rows dropped from its tap list — or used verbatim when `pre_extended`
/// (the mesh backend's stripes carry their guard rows). Each output element
/// is written once, so the outputs need not start zeroed.
template <typename LowAt, typename HighAt>
void convolve_cols(const LowAt& low_at, const HighAt& high_at, std::size_t plane_rows,
                   bool pre_extended, std::size_t width, const FilterPair& fp,
                   ImageF& ll, ImageF& lh, ImageF& hl, ImageF& hh, BoundaryMode mode,
                   std::size_t k0, std::size_t k1, std::size_t out0) {
    const auto fl = fp.low();
    const auto fh = fp.high();
    const std::size_t taps = fl.size();
    std::vector<Tap> low_taps;
    std::vector<Tap> high_taps;
    low_taps.reserve(taps);
    high_taps.reserve(taps);
    for (std::size_t k = k0; k < k1; ++k) {
        low_taps.clear();
        high_taps.clear();
        for (std::size_t n = 0; n < taps; ++n) {
            std::size_t idx = 2 * k + n;
            if (!pre_extended) {
                idx = extend_index(static_cast<std::ptrdiff_t>(idx), plane_rows, mode);
                if (idx >= plane_rows) continue;  // ZeroPad sentinel
            }
            low_taps.push_back({low_at(idx), fl[n], fh[n]});
            high_taps.push_back({high_at(idx), fl[n], fh[n]});
        }
        convolve_taps(low_taps, width, ll.row(k - out0).data(), lh.row(k - out0).data());
        convolve_taps(high_taps, width, hl.row(k - out0).data(), hh.row(k - out0).data());
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

// Two stages (4 taps): output k reads only pairs k and k+1, so the whole
// ladder is one pass per output that recomputes pair k+1's stage-0 v instead
// of storing it for the next output. Outputs [k0, k1) of the full signal
// land at lo/hi[k - k0]; pair k+1 past the edge is extended exactly as the
// stage sweep extends it. Same expressions as the ladder, so same bits.
void lifting2_range(std::span<const float> x, const LiftingPlan& plan,
                    float* __restrict lo, float* __restrict hi, BoundaryMode mode,
                    std::size_t k0, std::size_t k1) {
    const std::size_t half = x.size() / 2;
    const float t0 = plan.shear[0];
    const float t1 = plan.shear[1];
    const float sl = plan.scale_lo;
    const float sh = plan.scale_hi;
    const float* __restrict xs = x.data();
    const std::size_t direct_end = std::clamp(half - 1, k0, k1);  // pair k+1 in range
    for (std::size_t k = k0; k < direct_end; ++k) {
        const float u = xs[2 * k] + t0 * xs[2 * k + 1];
        const float vn = xs[2 * k + 3] - t0 * xs[2 * k + 2];
        lo[k - k0] = sl * (u + t1 * vn);
        hi[k - k0] = sh * (vn - t1 * u);
    }
    for (std::size_t k = direct_end; k < k1; ++k) {
        const auto i = static_cast<std::ptrdiff_t>(2 * k + 2);
        const float u = xs[2 * k] + t0 * xs[2 * k + 1];
        const float vn = ext_sample(x, i + 1, mode) - t0 * ext_sample(x, i, mode);
        lo[k - k0] = sl * (u + t1 * vn);
        hi[k - k0] = sh * (vn - t1 * u);
    }
}

// One row (or one column signal) through the full lifting ladder, m >= 2.
// u/v are caller scratch of at least half + m - 1 floats each.
void lifting_row(std::span<const float> x, const LiftingPlan& plan,
                 std::span<float> lo, std::span<float> hi, BoundaryMode mode,
                 float* __restrict u, float* __restrict v) {
    if (plan.stages() == 2) {
        lifting2_range(x, plan, lo.data(), hi.data(), mode, 0, x.size() / 2);
        return;
    }
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

// One polyphase strip of the column ladder, every stage in registers:
// stage 0 from the even/odd source rows e/o, then middle stages 1..n-1,
// each trading the strip's v for the v_{t-1} row the strip below left in
// vprev row t-1. With `lo` set the final stage shear[n] emits the output
// row and v_{n-1} moves into vprev row n-1; without (a priming strip, no
// output yet) the strip's newest v lands there. Per element these are the
// expressions of the stage-by-stage ladder, so the bits match it. N is n as
// a compile-time constant, which lets the stage loop unroll and the column
// loop vectorize; N == 0 takes n at run time.
template <std::size_t N>
void lift_col_strip(const float* __restrict e, const float* __restrict o,
                    std::size_t w, const LiftingPlan& plan, std::size_t n_rt,
                    float* __restrict vprev, float* __restrict lo,
                    float* __restrict hi) {
    const std::size_t n = N != 0 ? N : n_rt;
    const float* __restrict shear = plan.shear.data();
    const float sl = plan.scale_lo;
    const float sh = plan.scale_hi;
    for (std::size_t c = 0; c < w; ++c) {
        const float a = e[c];
        const float b = o[c];
        float u = a + shear[0] * b;
        float v = b - shear[0] * a;
        for (std::size_t t = 1; t < n; ++t) {
            const float below = vprev[(t - 1) * w + c];
            const float un = u + shear[t] * below;
            const float vn = below - shear[t] * u;
            vprev[(t - 1) * w + c] = v;
            u = un;
            v = vn;
        }
        if (lo != nullptr) {
            const float below = vprev[(n - 1) * w + c];
            lo[c] = sl * (u + shear[n] * below);
            hi[c] = sh * (below - shear[n] * u);
        }
        vprev[(n - 1) * w + c] = v;
    }
}

// Two stages (4 taps): output row k from strips k (e, o) and k+1 (en, on),
// recomputing strip k+1's stage-0 v rather than carrying it in vprev.
void lift2_col(const float* __restrict e, const float* __restrict o,
               const float* __restrict en, const float* __restrict on, std::size_t w,
               const LiftingPlan& plan, float* __restrict lo, float* __restrict hi) {
    const float t0 = plan.shear[0];
    const float t1 = plan.shear[1];
    const float sl = plan.scale_lo;
    const float sh = plan.scale_hi;
    for (std::size_t c = 0; c < w; ++c) {
        const float u = e[c] + t0 * o[c];
        const float vn = on[c] - t0 * en[c];
        lo[c] = sl * (u + t1 * vn);
        hi[c] = sh * (vn - t1 * u);
    }
}

// Column lifting for one source plane over output rows [k0, k1), written at
// row k - out0 of out_lo (low-pass columns) and out_hi (high-pass columns);
// row_at(i) is global source row i of a `width`-column plane with
// `plane_rows` rows (a full ImageF or the tile driver's ring). Outputs are
// written, not accumulated, and every output row k depends only on source
// rows 2k .. 2k+taps-1, so any range split, and any column segment,
// reproduces the full-plane result bit for bit.
template <typename RowAt>
void lifting_cols(const RowAt& row_at, std::size_t plane_rows, std::size_t width,
                  const LiftingPlan& plan, ImageF& out_lo, ImageF& out_hi,
                  BoundaryMode mode, std::size_t k0, std::size_t k1, std::size_t out0) {
    // Single descending sweep over polyphase strips. Strip li runs stage 0,
    // then each middle stage t against v_{t-1}[li+1] left in vprev row t-1
    // by strip li+1, and emits output row li once every stage is
    // available. The state between the source read and the output write is
    // m-1 rows (~L1), so the pass streams the source once instead of once
    // per stage.
    const std::size_t m = plan.stages();
    const std::size_t ext = m - 1;
    const std::size_t strips_end = k1 + ext;  // strip rows k0 .. strips_end-1
    std::vector<float> zeros;  // lazily sized; ZeroPad rows only
    const auto polyphase = [&](std::size_t i, std::size_t parity) -> const float* {
        const std::size_t idx =
            extend_index(static_cast<std::ptrdiff_t>(2 * i + parity), plane_rows, mode);
        if (idx < plane_rows) return row_at(idx);
        if (zeros.size() != width) zeros.assign(width, 0.0F);
        return zeros.data();
    };
    if (m == 2) {
        for (std::size_t k = k0; k < k1; ++k) {
            lift2_col(polyphase(k, 0), polyphase(k, 1), polyphase(k + 1, 0),
                      polyphase(k + 1, 1), width, plan, out_lo.row(k - out0).data(),
                      out_hi.row(k - out0).data());
        }
        return;
    }
    thread_local std::vector<float> vprev;
    if (vprev.size() < ext * width) vprev.resize(ext * width);
    for (std::size_t li = strips_end; li-- > k0;) {
        const float* e = polyphase(li, 0);
        const float* o = polyphase(li, 1);
        if (li >= k1) {
            // Priming strip: only the stages whose lower neighbour exists.
            lift_col_strip<0>(e, o, width, plan, std::min(ext, strips_end - li),
                              vprev.data(), nullptr, nullptr);
            continue;
        }
        float* lo = out_lo.row(li - out0).data();
        float* hi = out_hi.row(li - out0).data();
        switch (ext) {
            case 2: lift_col_strip<2>(e, o, width, plan, 2, vprev.data(), lo, hi); break;
            case 3: lift_col_strip<3>(e, o, width, plan, 3, vprev.data(), lo, hi); break;
            default: lift_col_strip<0>(e, o, width, plan, ext, vprev.data(), lo, hi);
        }
    }
}

// ---------------------------------------------------------------------------
// Lifting row range. It reuses the exact loop bodies above (lift_stage,
// lift_final), so the per-coefficient float expression trees — and
// therefore the bits — match the full-row sweep.
// ---------------------------------------------------------------------------

// Lifting ladder over the pair window [k0, k1+ext): stage-0 values are
// seeded from the global signal (direct loads while the pair is in range,
// ext_sample past the edge — exactly lifting_row's split at i == half),
// then the shrinking middle stages and the fused final stage run on the
// segment. Output k reads only pairs k..k+ext, all inside the window, so
// every intermediate equals its monolithic counterpart bit for bit.
void lifting_row_range(std::span<const float> x, const LiftingPlan& plan,
                       std::span<float> lo, std::span<float> hi, BoundaryMode mode,
                       std::size_t k0, std::size_t k1) {
    if (plan.stages() == 2) {
        lifting2_range(x, plan, lo.data(), hi.data(), mode, k0, k1);
        return;
    }
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
    convolve_row_range(x, fp, lo, hi, mode, 0, half);
}

void analyze_rows_range(const ImageF& in, const FilterPair& fp, ImageF& lo, ImageF& hi,
                        BoundaryMode mode, DwtKernel kernel, std::size_t r0,
                        std::size_t r1, std::size_t out0) {
    require_even(in.cols(), "column count");
    const std::size_t half = in.cols() / 2;
    if (r0 > r1 || r1 > in.rows() || out0 > r0) {
        throw std::invalid_argument("analyze_rows_range: bad row range");
    }
    if (lo.rows() < r1 - out0 || lo.cols() != half || hi.rows() < r1 - out0 ||
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
                         lo.row(r - out0).data(), hi.row(r - out0).data());
            }
            return;
        }
        const LiftingPlan plan = build_lifting_plan(fp);
        if (plan.valid) {
            std::vector<float> u(half + plan.stages() - 1);
            std::vector<float> v(half + plan.stages() - 1);
            for (std::size_t r = r0; r < r1; ++r) {
                lifting_row(in.row(r), plan, lo.row(r - out0), hi.row(r - out0), mode,
                            u.data(), v.data());
            }
            return;
        }
    }
    for (std::size_t r = r0; r < r1; ++r) {
        convolve_row_range(in.row(r), fp, lo.row(r - out0), hi.row(r - out0), mode, 0,
                           half);
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
            const auto low_at = [&](std::size_t r) { return low_rows.row(r).data(); };
            const auto high_at = [&](std::size_t r) { return high_rows.row(r).data(); };
            lifting_cols(low_at, low_rows.rows(), cols, plan, ll, lh, mode, k0, k1, 0);
            lifting_cols(high_at, high_rows.rows(), cols, plan, hl, hh, mode, k0, k1, 0);
            return;
        }
    }
    const auto low_at = [&low_rows](std::size_t r) { return low_rows.row(r).data(); };
    const auto high_at = [&high_rows](std::size_t r) { return high_rows.row(r).data(); };
    convolve_cols(low_at, high_at, low_rows.rows(), false, cols, fp, ll, lh, hl, hh, mode,
                  k0, k1, 0);
}

void analyze_cols_ext_range(const ImageF& low_ext, const ImageF& high_ext,
                            const FilterPair& fp, ImageF& ll, ImageF& lh, ImageF& hl,
                            ImageF& hh, std::size_t k0, std::size_t k1) {
    const auto low_at = [&low_ext](std::size_t r) { return low_ext.row(r).data(); };
    const auto high_at = [&high_ext](std::size_t r) { return high_ext.row(r).data(); };
    convolve_cols(low_at, high_at, low_ext.rows(), true, low_ext.cols(), fp, ll, lh, hl,
                  hh, BoundaryMode::Periodic, k0, k1, 0);
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
                       std::size_t k0, std::size_t k1, std::optional<std::size_t> out0) {
    require_even(plane_rows, "row count");
    const std::size_t half = plane_rows / 2;
    const std::size_t origin = out0.value_or(k0);
    if (k0 > k1 || k1 > half || origin > k0) {
        throw std::invalid_argument("analyze_cols_tile: bad output range");
    }
    for (const ImageF* out : {&ll, &lh, &hl, &hh}) {
        if (out->rows() < k1 - origin || out->cols() != width) {
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
                const std::size_t o = k - origin;
                haar_col(low_row(2 * k), low_row(2 * k + 1), width, fl[0], fl[1],
                         fh[0], fh[1], ll.row(o).data(), lh.row(o).data());
                haar_col(high_row(2 * k), high_row(2 * k + 1), width, fl[0], fl[1],
                         fh[0], fh[1], hl.row(o).data(), hh.row(o).data());
            }
            return;
        }
        const LiftingPlan plan = build_lifting_plan(fp);
        if (plan.valid) {
            lifting_cols(low_row, plane_rows, width, plan, ll, lh, mode, k0, k1, origin);
            lifting_cols(high_row, plane_rows, width, plan, hl, hh, mode, k0, k1, origin);
            return;
        }
    }
    convolve_cols(low_row, high_row, plane_rows, false, width, fp, ll, lh, hl, hh, mode,
                  k0, k1, origin);
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
    ll = ImageF(half_r, half_c);
    lh = ImageF(half_r, half_c);
    hl = ImageF(half_r, half_c);
    hh = ImageF(half_r, half_c);
    analyze_cols_range(low_rows, high_rows, fp, ll, lh, hl, hh, mode, kernel, 0,
                       half_r);
}

}  // namespace wavehpc::core
