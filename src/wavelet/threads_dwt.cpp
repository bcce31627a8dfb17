#include "wavelet/threads_dwt.hpp"

#include <algorithm>

#include "core/convolve.hpp"
#include "core/kernels.hpp"

namespace wavehpc::wavelet {

namespace {

// Stripe scratch when the caller passes no buffer source: the calling
// thread keeps the buffers of its last calls and hands them out again by
// exact size, so once warm a call allocates and zero-fills no scratch.
class ThreadScratch final : public core::FloatBufferSource {
public:
    [[nodiscard]] std::vector<float> obtain(std::size_t n, bool zeroed) override {
        const auto it = std::find_if(spare_.begin(), spare_.end(),
                                     [n](const auto& v) { return v.size() == n; });
        if (it == spare_.end()) return std::vector<float>(n);
        std::vector<float> buf = std::move(*it);
        spare_.erase(it);
        if (zeroed) std::fill(buf.begin(), buf.end(), 0.0F);
        return buf;
    }
    void recycle(std::vector<float>&& buf) override {
        if (spare_.size() == kKeep) spare_.erase(spare_.begin());
        spare_.push_back(std::move(buf));
    }

private:
    static constexpr std::size_t kKeep = 64;  // 4 levels x 8 stripes x (lo, hi)
    std::vector<std::vector<float>> spare_;
};

// Output rows [k0, k1) of one level of one image. The row pass runs over
// the input rows extend_index(g), g in [2*k0, 2*k1 + taps - 2), that the
// column pass reads: the taps-2 halo rows are recomputed, not shared, rows
// the boundary maps onto one source row are computed once, and ZeroPad rows
// outside the plane read as zeros. The distinct rows go, ascending, into
// consecutive rows of the scratch planes lo/hi, and the column pass reads
// them there while still in cache and writes the stripe's rows of ll and d.
void stripe(const core::ImageF& in, const core::FilterPair& fp, core::ImageF& lo,
            core::ImageF& hi, core::ImageF& ll, core::DetailBands& d,
            core::BoundaryMode mode, core::DwtKernel kernel, std::size_t k0,
            std::size_t k1) {
    constexpr std::size_t kUnread = ~std::size_t{0};
    const std::size_t rows = in.rows();
    thread_local std::vector<std::size_t> slot;  // source row -> scratch row
    slot.assign(rows, kUnread);
    const auto end = static_cast<std::ptrdiff_t>(2 * k1 + fp.low().size() - 2);
    for (auto g = static_cast<std::ptrdiff_t>(2 * k0); g < end; ++g) {
        if (const auto r = core::extend_index(g, rows, mode); r < rows) slot[r] = 0;
    }
    std::size_t used = 0;
    for (std::size_t r0 = 0; r0 < rows; ++r0) {
        if (slot[r0] == kUnread) continue;
        const std::size_t first = used;  // scratch row of r0
        std::size_t r1 = r0;
        while (r1 < rows && slot[r1] != kUnread) slot[r1++] = used++;
        core::analyze_rows_range(in, fp, lo, hi, mode, kernel, r0, r1, r0 - first);
        r0 = r1;
    }
    const core::RowAccessor lo_at = [&](std::size_t r) { return lo.row(slot[r]).data(); };
    const core::RowAccessor hi_at = [&](std::size_t r) { return hi.row(slot[r]).data(); };
    core::analyze_cols_tile(lo_at, hi_at, rows, in.cols() / 2, fp, ll, d.lh, d.hl, d.hh,
                            mode, kernel, k0, k1, 0);
}

}  // namespace

core::ImageF reconstruct_parallel(const core::Pyramid& pyr, const core::FilterPair& fp,
                                  runtime::ThreadPool& pool, core::BoundaryMode mode) {
    if (pyr.depth() == 0) {
        throw std::invalid_argument("reconstruct_parallel: empty pyramid");
    }
    core::ImageF current = pyr.approx;
    for (std::size_t lvl = pyr.depth(); lvl-- > 0;) {
        const auto& d = pyr.levels[lvl];
        const std::size_t half_r = current.rows();
        const std::size_t half_c = current.cols();

        // Column synthesis, split over output rows.
        core::ImageF low_rows(2 * half_r, half_c);
        core::ImageF high_rows(2 * half_r, half_c);
        pool.parallel_for(0, 2 * half_r, [&](std::size_t mb, std::size_t me) {
            for (std::size_t m = mb; m < me; ++m) {
                core::synthesize_col_row(
                    m, half_r, fp.low(), fp.high(),
                    [&](std::size_t k) { return current.row(k); },
                    [&](std::size_t k) { return d.lh.row(k); }, low_rows.row(m), mode);
                core::synthesize_col_row(
                    m, half_r, fp.low(), fp.high(),
                    [&](std::size_t k) { return d.hl.row(k); },
                    [&](std::size_t k) { return d.hh.row(k); }, high_rows.row(m), mode);
            }
        });

        // Row synthesis, split over rows (each row independent). The
        // single-row scratch images live once per chunk, not per row — the
        // seed allocated three ImageFs for every output row.
        core::ImageF out(2 * half_r, 2 * half_c);
        pool.parallel_for(0, 2 * half_r, [&](std::size_t rb, std::size_t re) {
            core::ImageF lo(1, half_c);
            core::ImageF hi(1, half_c);
            core::ImageF line(1, 2 * half_c);
            for (std::size_t r = rb; r < re; ++r) {
                std::copy(low_rows.row(r).begin(), low_rows.row(r).end(),
                          lo.row(0).begin());
                std::copy(high_rows.row(r).begin(), high_rows.row(r).end(),
                          hi.row(0).begin());
                // synthesize_rows reuses `line` (shape already matches).
                core::synthesize_rows(lo, hi, fp.low(), fp.high(), line, mode);
                std::copy(line.row(0).begin(), line.row(0).end(), out.row(r).begin());
            }
        });
        current = std::move(out);
    }
    return current;
}

core::Pyramid decompose_parallel(const core::ImageF& img, const core::FilterPair& fp,
                                 int levels, core::BoundaryMode mode,
                                 runtime::ThreadPool& pool, core::DwtKernel kernel) {
    // A batch of one: the same stripes and kernel calls as decompose_batch.
    auto pyrs = decompose_batch({&img}, fp, levels, mode, &pool, kernel, nullptr);
    return std::move(pyrs.front());
}

std::vector<core::Pyramid> decompose_batch(
    const std::vector<const core::ImageF*>& images, const core::FilterPair& fp,
    int levels, core::BoundaryMode mode, runtime::ThreadPool* pool,
    core::DwtKernel kernel, core::FloatBufferSource* buffers) {
    const std::size_t batch = images.size();
    if (batch == 0) return {};
    for (const core::ImageF* im : images) {
        if (im == nullptr) throw std::invalid_argument("decompose_batch: null image");
        if (im->rows() != images[0]->rows() || im->cols() != images[0]->cols()) {
            throw std::invalid_argument("decompose_batch: images differ in shape");
        }
    }
    core::validate_decomposition_request(images.front()->rows(),
                                         images.front()->cols(), levels);
    kernel = core::resolve_dwt_kernel(kernel, fp);  // resolve once for all levels
    const std::size_t taps = fp.low().size();
    core::HeapBufferSource heap;
    core::FloatBufferSource& src = buffers != nullptr ? *buffers : heap;
    thread_local ThreadScratch thread_scratch;
    core::FloatBufferSource& scratch = buffers != nullptr ? *buffers : thread_scratch;

    std::vector<core::Pyramid> out(batch);
    for (auto& p : out) p.levels.reserve(static_cast<std::size_t>(levels));
    std::vector<core::ImageF> current(batch);  // empty at level 0: inputs read in place
    std::size_t rows = images.front()->rows();
    std::size_t cols = images.front()->cols();
    for (int lvl = 0; lvl < levels; ++lvl) {
        const std::size_t half_r = rows / 2;
        const std::size_t half_c = cols / 2;
        std::vector<core::ImageF> ll(batch);
        for (std::size_t b = 0; b < batch; ++b) {
            ll[b] = core::obtain_image(src, half_r, half_c, false);
            core::DetailBands d;
            d.lh = core::obtain_image(src, half_r, half_c, false);
            d.hl = core::obtain_image(src, half_r, half_c, false);
            d.hh = core::obtain_image(src, half_r, half_c, false);
            out[b].levels.push_back(std::move(d));
        }
        // One parallel_for over `parts` stripes of the batch's output rows
        // [0, batch*half_r): index g is output row g%half_r of image
        // g/half_r, and a stripe spanning an image seam runs one stripe()
        // per image. All scratch planes have one size, the halo rounded up
        // to 8 rows so the Daubechies banks share buffer sizes.
        const std::size_t n = batch * half_r;
        const std::size_t parts = pool != nullptr ? std::min(n, pool->workers()) : 1;
        const std::size_t span = std::min(half_r, (n + parts - 1) / parts);
        const std::size_t slots = std::min(rows, 2 * span + (taps + 6) / 8 * 8);
        std::vector<core::ImageF> lohi(2 * parts);  // stripe p: lohi[2p], lohi[2p+1]
        for (auto& s : lohi) s = core::obtain_image(scratch, slots, half_c, false);
        auto sweep = [&](std::size_t p0, std::size_t p1) {
            for (std::size_t p = p0; p < p1; ++p) {
                for (std::size_t g = n * p / parts, g1 = n * (p + 1) / parts; g < g1;) {
                    const std::size_t b = g / half_r;
                    const std::size_t k = g % half_r;
                    const std::size_t k1 = std::min(half_r, k + (g1 - g));
                    stripe(lvl == 0 ? *images[b] : current[b], fp, lohi[2 * p],
                           lohi[2 * p + 1], ll[b], out[b].levels.back(), mode, kernel,
                           k, k1);
                    g += k1 - k;
                }
            }
        };
        pool != nullptr ? pool->parallel_for(0, parts, sweep) : sweep(0, parts);
        for (auto& s : lohi) scratch.recycle(s.release_data());
        if (lvl > 0) {
            for (auto& c : current) src.recycle(c.release_data());
        }
        current = std::move(ll);
        rows = half_r;
        cols = half_c;
    }
    for (std::size_t b = 0; b < batch; ++b) {
        out[b].approx = std::move(current[b]);
    }
    return out;
}

}  // namespace wavehpc::wavelet
