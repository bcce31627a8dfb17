#include "core/dwt.hpp"

#include <stdexcept>

namespace wavehpc::core {

void validate_decomposition_request(std::size_t rows, std::size_t cols, int levels) {
    if (levels < 1) {
        throw std::invalid_argument("decompose: levels must be >= 1");
    }
    if (levels >= 63) {
        throw std::invalid_argument("decompose: levels out of range");
    }
    const std::size_t div = std::size_t{1} << levels;
    if (rows == 0 || cols == 0 || rows % div != 0 || cols % div != 0) {
        throw std::invalid_argument(
            "decompose: image dimensions must be non-zero and divisible by 2^levels");
    }
}

Subbands decompose_level(const ImageF& in, const FilterPair& fp, BoundaryMode mode,
                         DwtKernel kernel) {
    validate_decomposition_request(in.rows(), in.cols(), 1);
    // Steps 1-4 run through the shared kernel layer: one fused row pass
    // (I -> L, H) and one fused column pass (L, H -> LL, LH, HL, HH).
    Subbands sb;
    analyze_level(in, fp, sb.ll, sb.detail.lh, sb.detail.hl, sb.detail.hh, mode,
                  kernel);
    return sb;
}

ImageF reconstruct_level(const Subbands& sb, const FilterPair& fp, BoundaryMode mode) {
    const std::size_t half_r = sb.ll.rows();
    const std::size_t half_c = sb.ll.cols();

    // Column synthesis: (LL, LH) -> L and (HL, HH) -> H.
    ImageF low_rows(2 * half_r, half_c, 0.0F);
    upsample_accumulate_cols(sb.ll, fp.low(), low_rows, mode);
    upsample_accumulate_cols(sb.detail.lh, fp.high(), low_rows, mode);

    ImageF high_rows(2 * half_r, half_c, 0.0F);
    upsample_accumulate_cols(sb.detail.hl, fp.low(), high_rows, mode);
    upsample_accumulate_cols(sb.detail.hh, fp.high(), high_rows, mode);

    // Row synthesis: (L, H) -> I.
    ImageF out(2 * half_r, 2 * half_c, 0.0F);
    upsample_accumulate_rows(low_rows, fp.low(), out, mode);
    upsample_accumulate_rows(high_rows, fp.high(), out, mode);
    return out;
}

ImageF reconstruct_level_gather(const Subbands& sb, const FilterPair& fp,
                                BoundaryMode mode) {
    ImageF low_rows;
    ImageF high_rows;
    synthesize_cols(sb.ll, sb.detail.lh, fp.low(), fp.high(), low_rows, mode);
    synthesize_cols(sb.detail.hl, sb.detail.hh, fp.low(), fp.high(), high_rows, mode);
    ImageF out;
    synthesize_rows(low_rows, high_rows, fp.low(), fp.high(), out, mode);
    return out;
}

ImageF reconstruct_gather(const Pyramid& pyr, const FilterPair& fp, BoundaryMode mode) {
    if (pyr.depth() == 0) {
        throw std::invalid_argument("reconstruct_gather: empty pyramid");
    }
    ImageF current = pyr.approx;
    for (std::size_t k = pyr.depth(); k-- > 0;) {
        Subbands sb;
        sb.ll = std::move(current);
        sb.detail = pyr.levels[k];
        current = reconstruct_level_gather(sb, fp, mode);
    }
    return current;
}

Pyramid decompose(const ImageF& img, const FilterPair& fp, int levels, BoundaryMode mode,
                  DwtKernel kernel) {
    validate_decomposition_request(img.rows(), img.cols(), levels);
    kernel = resolve_dwt_kernel(kernel, fp);  // resolve once for all levels
    Pyramid pyr;
    pyr.levels.reserve(static_cast<std::size_t>(levels));
    ImageF current = img;
    for (int k = 0; k < levels; ++k) {
        Subbands sb = decompose_level(current, fp, mode, kernel);
        pyr.levels.push_back(std::move(sb.detail));
        current = std::move(sb.ll);
    }
    pyr.approx = std::move(current);
    return pyr;
}

Pyramid decompose(const ImageF& img, const FilterPair& fp, int levels,
                  BoundaryMode mode, DwtKernel kernel, FloatBufferSource& buffers) {
    validate_decomposition_request(img.rows(), img.cols(), levels);
    kernel = resolve_dwt_kernel(kernel, fp);  // resolve once for all levels
    // Every kernel writes each output element once, so buffers are handed
    // out dirty.
    Pyramid pyr;
    pyr.levels.reserve(static_cast<std::size_t>(levels));
    ImageF current;  // empty at level 0: the input is read in place
    for (int k = 0; k < levels; ++k) {
        const ImageF& in = k == 0 ? img : current;
        const std::size_t rows = in.rows();
        const std::size_t half_r = rows / 2;
        const std::size_t half_c = in.cols() / 2;
        ImageF low_rows = obtain_image(buffers, rows, half_c, false);
        ImageF high_rows = obtain_image(buffers, rows, half_c, false);
        analyze_rows_range(in, fp, low_rows, high_rows, mode, kernel, 0, rows);
        if (k > 0) buffers.recycle(current.release_data());

        ImageF ll = obtain_image(buffers, half_r, half_c, false);
        DetailBands d;
        d.lh = obtain_image(buffers, half_r, half_c, false);
        d.hl = obtain_image(buffers, half_r, half_c, false);
        d.hh = obtain_image(buffers, half_r, half_c, false);
        analyze_cols_range(low_rows, high_rows, fp, ll, d.lh, d.hl, d.hh, mode,
                           kernel, 0, half_r);
        buffers.recycle(low_rows.release_data());
        buffers.recycle(high_rows.release_data());
        pyr.levels.push_back(std::move(d));
        current = std::move(ll);
    }
    pyr.approx = std::move(current);
    return pyr;
}

ImageF reconstruct(const Pyramid& pyr, const FilterPair& fp, BoundaryMode mode) {
    if (pyr.depth() == 0) {
        throw std::invalid_argument("reconstruct: empty pyramid");
    }
    ImageF current = pyr.approx;
    for (std::size_t k = pyr.depth(); k-- > 0;) {
        Subbands sb;
        sb.ll = std::move(current);
        sb.detail = pyr.levels[k];  // copy: the pyramid stays usable
        current = reconstruct_level(sb, fp, mode);
    }
    return current;
}

}  // namespace wavehpc::core
