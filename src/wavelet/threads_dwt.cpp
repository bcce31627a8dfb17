#include "wavelet/threads_dwt.hpp"

#include <algorithm>

#include "core/convolve.hpp"
#include "core/kernels.hpp"

namespace wavehpc::wavelet {

namespace {

// Row-pass intermediates are scratch: the row pass writes every element and
// each level drops them at its end. Without a caller buffer source every
// calling thread keeps the last few and hands them out again by exact size,
// so a call does not allocate and zero-fill two planes per level on the
// caller ahead of the parallel sweeps.
class RowScratch final : public core::FloatBufferSource {
public:
    [[nodiscard]] std::vector<float> obtain(std::size_t n, bool zeroed) override {
        for (auto it = spare_.begin(); it != spare_.end(); ++it) {
            if (it->size() != n) continue;
            std::vector<float> buf = std::move(*it);
            spare_.erase(it);
            if (zeroed) std::fill(buf.begin(), buf.end(), 0.0F);
            return buf;
        }
        return std::vector<float>(n);
    }
    void recycle(std::vector<float>&& buf) override {
        if (spare_.size() == kKeep) spare_.erase(spare_.begin());
        spare_.push_back(std::move(buf));
    }

private:
    static constexpr std::size_t kKeep = 8;  // two per level of a 4-level call
    std::vector<std::vector<float>> spare_;
};

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
    // A batch of one: identical range splits (parallel_for over [0, rows)),
    // identical kernel calls, hence bit-identical to the historical
    // unbatched loop.
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
        if (im == nullptr) {
            throw std::invalid_argument("decompose_batch: null image");
        }
        if (im->rows() != images.front()->rows() ||
            im->cols() != images.front()->cols()) {
            throw std::invalid_argument("decompose_batch: images differ in shape");
        }
    }
    core::validate_decomposition_request(images.front()->rows(),
                                         images.front()->cols(), levels);
    kernel = core::resolve_dwt_kernel(kernel, fp);  // resolve once for all levels
    core::HeapBufferSource heap;
    core::FloatBufferSource& src = buffers != nullptr ? *buffers : heap;
    thread_local RowScratch row_scratch;
    core::FloatBufferSource& scratch = buffers != nullptr ? *buffers : row_scratch;

    std::vector<core::Pyramid> out(batch);
    for (auto& p : out) p.levels.reserve(static_cast<std::size_t>(levels));
    std::vector<core::ImageF> current(batch);  // empty at level 0: inputs read in place
    std::vector<core::ImageF> low_rows(batch);
    std::vector<core::ImageF> high_rows(batch);

    std::size_t rows = images.front()->rows();
    std::size_t cols = images.front()->cols();
    for (int lvl = 0; lvl < levels; ++lvl) {
        const std::size_t half_r = rows / 2;
        const std::size_t half_c = cols / 2;
        for (std::size_t b = 0; b < batch; ++b) {
            low_rows[b] = core::obtain_image(scratch, rows, half_c, false);
            high_rows[b] = core::obtain_image(scratch, rows, half_c, false);
        }
        // One fused row sweep over the global index space [0, batch*rows):
        // global index g addresses row g%rows of image g/rows. A chunk
        // spanning an image seam simply issues one range call per image.
        auto row_sweep = [&](std::size_t g0, std::size_t g1) {
            std::size_t b = g0 / rows;
            std::size_t r = g0 % rows;
            while (g0 < g1) {
                const std::size_t take = std::min(rows - r, g1 - g0);
                const core::ImageF& in = lvl == 0 ? *images[b] : current[b];
                core::analyze_rows_range(in, fp, low_rows[b], high_rows[b], mode,
                                         kernel, r, r + take);
                g0 += take;
                ++b;
                r = 0;
            }
        };
        if (pool != nullptr) {
            pool->parallel_for(0, batch * rows, row_sweep);
        } else {
            row_sweep(0, batch * rows);
        }
        if (lvl > 0) {
            for (std::size_t b = 0; b < batch; ++b) {
                src.recycle(current[b].release_data());
            }
        }

        std::vector<core::ImageF> ll(batch);
        for (std::size_t b = 0; b < batch; ++b) {
            ll[b] = core::obtain_image(src, half_r, half_c, false);
            core::DetailBands d;
            d.lh = core::obtain_image(src, half_r, half_c, false);
            d.hl = core::obtain_image(src, half_r, half_c, false);
            d.hh = core::obtain_image(src, half_r, half_c, false);
            out[b].levels.push_back(std::move(d));
        }
        // One fused column sweep over [0, batch*half_r).
        auto col_sweep = [&](std::size_t g0, std::size_t g1) {
            std::size_t b = g0 / half_r;
            std::size_t k = g0 % half_r;
            while (g0 < g1) {
                const std::size_t take = std::min(half_r - k, g1 - g0);
                core::DetailBands& d = out[b].levels.back();
                core::analyze_cols_range(low_rows[b], high_rows[b], fp, ll[b], d.lh,
                                         d.hl, d.hh, mode, kernel, k, k + take);
                g0 += take;
                ++b;
                k = 0;
            }
        };
        if (pool != nullptr) {
            pool->parallel_for(0, batch * half_r, col_sweep);
        } else {
            col_sweep(0, batch * half_r);
        }
        for (std::size_t b = 0; b < batch; ++b) {
            scratch.recycle(low_rows[b].release_data());
            scratch.recycle(high_rows[b].release_data());
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
