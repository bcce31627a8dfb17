#pragma once
// Progressive band assembly and delivery (ISSUE 9).
//
// The tile stream emits the approximation band and each level's detail
// subbands as independent units, which is exactly the granularity a
// preview protocol wants: a rate-limited client fetches the (tiny)
// approximation first — 1/4^levels of the coefficients — and streams
// detail levels coarsest-to-finest on demand. The sinks here assemble
// tiles back into core::Pyramid bands; ProgressiveDelivery prices each
// band with core::band_entropy_bits and lays it on a simulated
// bytes-per-second link, giving the time-to-first-band /
// time-to-full-pyramid split bench_tiled_stream reports and the service's
// allow_degraded preview path uses.

#include <chrono>
#include <cstdint>
#include <vector>

#include "core/buffers.hpp"
#include "core/dwt.hpp"
#include "tile/tiled_dwt.hpp"

namespace wavehpc::tile {

/// Assembles the tile stream back into a core::Pyramid. Band planes come
/// from `buffers`; every delivered tile is pasted then recycled back, so
/// with an arena source the assembly is allocation-free after warmup.
class PyramidAssembler : public TileSink {
public:
    PyramidAssembler(std::size_t rows, std::size_t cols, int levels,
                     core::FloatBufferSource& buffers);

    void on_detail(const TileCoord& coord, core::DetailBands&& bands) override;
    void on_approx(const TileCoord& coord, core::ImageF&& ll) override;

    /// The assembled pyramid; call once, after the stream completes.
    [[nodiscard]] core::Pyramid take() { return std::move(pyr_); }
    [[nodiscard]] const core::Pyramid& pyramid() const { return pyr_; }

private:
    core::FloatBufferSource& buffers_;
    core::Pyramid pyr_;
};

/// Swallows the stream, recycling every tile immediately — the
/// constant-memory consumer the bench's height-invariance gate uses.
class DiscardSink final : public TileSink {
public:
    explicit DiscardSink(core::FloatBufferSource& buffers) : buffers_(buffers) {}

    void on_detail(const TileCoord& coord, core::DetailBands&& bands) override;
    void on_approx(const TileCoord& coord, core::ImageF&& ll) override;

private:
    core::FloatBufferSource& buffers_;
};

/// Band identifiers in progressive delivery order within a level.
enum class BandKind : std::uint8_t { Approx, LH, HL, HH };

/// PyramidAssembler that also timestamps band completion (relative to its
/// own construction), feeding the delivery planner's sealed times.
class ProgressiveStore final : public PyramidAssembler {
public:
    ProgressiveStore(std::size_t rows, std::size_t cols, int levels,
                     core::FloatBufferSource& buffers);

    void on_level_complete(int level) override;
    void on_approx_complete() override;

    [[nodiscard]] double approx_seal_seconds() const { return approx_seal_; }
    [[nodiscard]] double level_seal_seconds(int level) const;

private:
    std::chrono::steady_clock::time_point start_;
    double approx_seal_ = 0.0;
    std::vector<double> level_seal_;
};

struct DeliveryItem {
    BandKind kind = BandKind::Approx;
    int level = 0;                 ///< pyramid level index (ignored for Approx)
    double coded_bytes = 0.0;      ///< first-order entropy estimate + header
    double deliver_seconds = 0.0;  ///< simulated finish time on the link
};

/// Rate-limited progressive schedule over a finished pyramid: the
/// approximation band first, then detail levels coarsest-to-finest (LH,
/// HL, HH each). Coded size is the band's first-order entropy at
/// `quant_step` plus a fixed per-band header; the link is SIMULATED (no
/// sleeping) at `bytes_per_second`, opening once the `sealed_seconds` of
/// compute are done. time_to_first_band() < time_to_full() structurally,
/// since the approximation is a 4^levels-th of the coefficients.
class ProgressiveDelivery {
public:
    ProgressiveDelivery(const core::Pyramid& pyr, double bytes_per_second,
                        double sealed_seconds, float quant_step = 1.0F);

    [[nodiscard]] const std::vector<DeliveryItem>& schedule() const { return items_; }
    [[nodiscard]] double time_to_first_band() const;
    [[nodiscard]] double time_to_full() const;

private:
    std::vector<DeliveryItem> items_;
};

/// WAVEHPC_TILE_PREVIEW_BPS: bytes/second of the simulated preview link
/// (default 8 MiB/s, at least 1; base/knob.hpp policy).
[[nodiscard]] double preview_bytes_per_second();

/// One-call tiled decomposition of an in-memory image — the service's
/// progressive compute path: InMemoryTileSource -> stream_decompose ->
/// PyramidAssembler. Bit-identical to core::decompose for every kernel
/// and boundary mode.
[[nodiscard]] core::Pyramid tiled_decompose(const core::ImageF& img,
                                            const core::FilterPair& fp, int levels,
                                            core::BoundaryMode mode,
                                            core::DwtKernel kernel,
                                            const TileConfig& cfg,
                                            core::FloatBufferSource* buffers,
                                            TileStreamStats* stats = nullptr);

}  // namespace wavehpc::tile
