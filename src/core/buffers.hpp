#pragma once
// Pluggable float-buffer supply for the decomposition paths (ISSUE 8).
//
// The decompose loops allocate two kinds of buffers per level: transient
// row-pass scratch (the serial level's two row-band planes, or one pair of
// stripe planes per stripe of the threaded sweep, recycled at the end of
// the level) and the subband planes that outlive the call inside the
// returned Pyramid. Routing both through a
// FloatBufferSource lets a caller substitute a recycling pool (svc's
// BufferArena) without the core layer depending on the service layer; the
// default HeapBufferSource preserves the historical new/delete behaviour
// exactly.
//
// Contract:
//   * obtain(n, zeroed) returns a vector with size() == n. When `zeroed`
//     is true every element is 0.0f; otherwise the contents are
//     unspecified and the caller must overwrite them. The DWT kernels write
//     every output element once, so the decompose paths never ask for
//     zeroed buffers.
//   * recycle(v) takes back a buffer the caller no longer needs. The
//     source may pool the capacity or free it; `v` is consumed either way.
//   * Both methods must be callable from any thread concurrently
//     (HeapBufferSource is trivially so; pooling sources synchronize).

#include <cstddef>
#include <utility>
#include <vector>

#include "core/image.hpp"

namespace wavehpc::core {

class FloatBufferSource {
public:
    virtual ~FloatBufferSource() = default;

    [[nodiscard]] virtual std::vector<float> obtain(std::size_t n, bool zeroed) = 0;
    virtual void recycle(std::vector<float>&& buf) = 0;
};

/// The identity source: plain heap vectors, nothing pooled. obtain()
/// value-initializes (vectors are born zeroed), so `zeroed` is vacuous and
/// behaviour is byte-for-byte the pre-ISSUE-8 allocation pattern.
class HeapBufferSource final : public FloatBufferSource {
public:
    [[nodiscard]] std::vector<float> obtain(std::size_t n, bool /*zeroed*/) override {
        return std::vector<float>(n);
    }
    void recycle(std::vector<float>&& buf) override {
        std::vector<float> drop = std::move(buf);  // free now
    }
};

/// Build an ImageF over a buffer from `src` (size rows*cols, zero-filled
/// iff `zeroed`).
[[nodiscard]] inline ImageF obtain_image(FloatBufferSource& src, std::size_t rows,
                                         std::size_t cols, bool zeroed) {
    return ImageF(rows, cols, src.obtain(rows * cols, zeroed));
}

}  // namespace wavehpc::core
