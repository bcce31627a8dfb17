#pragma once
// Shared-memory parallel Mallat decomposition: the same arithmetic as
// core::decompose, data-parallel over rows on the host thread pool. This is
// the "modern node" backend — where the simulators model the 1996 machines,
// this one actually runs in parallel. All arithmetic lives in the shared
// kernel layer (core/kernels.hpp); this backend only owns the stripe splits.

#include "core/dwt.hpp"
#include "runtime/thread_pool.hpp"

namespace wavehpc::wavelet {

/// Bit-identical to core::decompose(img, fp, levels, mode, kernel): both
/// run the shared fused kernels, and every output coefficient is a fixed
/// function of its source rows, so splitting the row ranges across workers
/// changes no accumulation order. `kernel` selects convolve vs lifting
/// exactly as in core::decompose (Auto defers to the process selector).
[[nodiscard]] core::Pyramid decompose_parallel(
    const core::ImageF& img, const core::FilterPair& fp, int levels,
    core::BoundaryMode mode, runtime::ThreadPool& pool,
    core::DwtKernel kernel = core::DwtKernel::Auto);

/// Fused batched decomposition (ISSUE 8): N same-shaped images share ONE
/// stripe sweep per level, one parallel_for over one stripe of output rows
/// per worker in the global index space [0, N*rows/2), so one pool dispatch
/// amortizes the fork/join across the whole batch instead of paying it per
/// request. A stripe runs the row pass over the input rows its outputs read
/// (its own rows plus a taps-2 halo, recomputed rather than exchanged) into
/// stripe scratch, then the column pass from that scratch into the subband
/// planes. Result i is bit-identical to decompose_parallel(*images[i], ...)
/// and therefore to core::decompose: every output coefficient is the same
/// kernel expression of its own image's rows, wherever the stripes split.
///
/// All images must be non-null with identical dimensions (throws
/// std::invalid_argument otherwise). `pool` may be null for a serial batch.
/// `buffers` (may be null) supplies every scratch and subband buffer, and
/// transient ones are recycled back into it; without it the subbands come
/// from the heap and the stripe scratch from a cache on the calling thread.
[[nodiscard]] std::vector<core::Pyramid> decompose_batch(
    const std::vector<const core::ImageF*>& images, const core::FilterPair& fp,
    int levels, core::BoundaryMode mode, runtime::ThreadPool* pool,
    core::DwtKernel kernel = core::DwtKernel::Auto,
    core::FloatBufferSource* buffers = nullptr);

/// Bit-identical to core::reconstruct_gather(pyr, fp, mode): the gather-form
/// synthesis computes each output independently, so the row loops
/// parallelize without changing any accumulation order. Pass the boundary
/// mode the pyramid was analyzed with (default Periodic, the
/// exact-reconstruction convention).
[[nodiscard]] core::ImageF reconstruct_parallel(
    const core::Pyramid& pyr, const core::FilterPair& fp, runtime::ThreadPool& pool,
    core::BoundaryMode mode = core::BoundaryMode::Periodic);

}  // namespace wavehpc::wavelet
