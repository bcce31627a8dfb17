// Workload `stream`: a 16384x16384 synthetic scene (1 GiB of floats,
// about ten times the last-level cache) through tile::stream_decompose at
// F8/L4. The input comes from tile::SyntheticTileSource, generated row band
// by row band as stream_decompose asks, so no gigabyte file is written during
// set-up; the source's cost is timed separately (tile.source_share) so a
// kernel gain can be sized against it. The work is serial: no pool, no svc.
//
// Verification: for seeded 512x512 windows the sink keeps every streamed
// coefficient whose support lies inside the window, and those must equal a
// monolithic core::decompose of the window bit for bit (the interior-window
// check bench_tiled_stream --smoke makes, here on the gigapixel run itself).

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/kernels.hpp"
#include "svc/arena.hpp"
#include "tile/plan.hpp"
#include "tile/source.hpp"
#include "tile/tiled_dwt.hpp"

namespace perfbench {
namespace {

using wavehpc::core::BoundaryMode;
using wavehpc::core::DetailBands;
using wavehpc::core::DwtKernel;
using wavehpc::core::FilterPair;
using wavehpc::core::ImageF;
using wavehpc::tile::TileCoord;

constexpr std::size_t kEdge = 16384;
constexpr int kTaps = 8;
constexpr int kLevels = 4;
constexpr std::size_t kWindow = 512;
constexpr std::size_t kWindowsPerPass = 2;
constexpr int kMonoReps = 9;
constexpr double kLatencyLimitMs = 250.0;  // per-tile p95 limit for rate_at_slo_rps

/// Times every read_rows call and remembers when each input row became
/// available, so tile latency can be measured from data arrival.
class TimedSource final : public wavehpc::tile::TileSource {
public:
    TimedSource(std::size_t rows, std::size_t cols, std::uint64_t seed)
        : inner_(rows, cols, seed), span_(Tracer::get().intern("tile.read_rows")) {}
    [[nodiscard]] std::size_t rows() const override { return inner_.rows(); }
    [[nodiscard]] std::size_t cols() const override { return inner_.cols(); }
    void read_rows(std::size_t y0, std::size_t n, std::span<float> dst) override {
        ScopedSpan s(span_);
        const auto t0 = Clock::now();
        inner_.read_rows(y0, n, dst);
        const auto t1 = Clock::now();
        busy_s += seconds_between(t0, t1);
        reads.push_back({y0 + n, t1});
    }
    struct Read {
        std::size_t row_end;
        Clock::time_point done;
    };
    /// When input row `row` had been read.
    [[nodiscard]] Clock::time_point ready_at(std::size_t row) const {
        const auto it = std::upper_bound(reads.begin(), reads.end(), row,
                                         [](std::size_t r, const Read& rd) { return r < rd.row_end; });
        return it == reads.end() ? reads.back().done : it->done;
    }
    void reset() {
        busy_s = 0.0;
        reads.clear();
    }
    double busy_s = 0.0;
    std::vector<Read> reads;

private:
    wavehpc::tile::SyntheticTileSource inner_;
    std::uint32_t span_;
};

/// Coefficients of one window kept from the stream: per level the square
/// [shift, shift+n) of each band, n being the count of window coefficients
/// whose support stays inside the window.
struct WindowCapture {
    std::size_t off = 0;
    std::vector<std::size_t> shift, n;  // per level; index kLevels = approx
    std::vector<DetailBands> detail;
    ImageF approx;

    explicit WindowCapture(std::size_t offset) : off(offset) {
        std::size_t exact = kWindow;
        for (int l = 0; l <= kLevels; ++l) {
            if (l < kLevels) exact = (exact - kTaps) / 2 + 1;
            shift.push_back(off >> (l < kLevels ? l + 1 : kLevels));
            n.push_back(exact);
            if (l < kLevels) {
                detail.push_back({ImageF(exact, exact), ImageF(exact, exact), ImageF(exact, exact)});
            }
        }
        approx = ImageF(n[kLevels], n[kLevels]);
    }

    static void copy(const ImageF& tile, std::size_t row0, std::size_t col0, std::size_t shift,
                     ImageF& dst) {
        const std::size_t n = dst.rows();
        const std::size_t r_lo = std::max(row0, shift), r_hi = std::min(row0 + tile.rows(), shift + n);
        const std::size_t c_lo = std::max(col0, shift), c_hi = std::min(col0 + tile.cols(), shift + n);
        for (std::size_t r = r_lo; r < r_hi; ++r) {
            for (std::size_t c = c_lo; c < c_hi; ++c) dst(r - shift, c - shift) = tile(r - row0, c - col0);
        }
    }
    void take_detail(const TileCoord& c, const DetailBands& b) {
        const auto l = static_cast<std::size_t>(c.level);
        copy(b.lh, c.row0, c.col0, shift[l], detail[l].lh);
        copy(b.hl, c.row0, c.col0, shift[l], detail[l].hl);
        copy(b.hh, c.row0, c.col0, shift[l], detail[l].hh);
    }
    void take_approx(const TileCoord& c, const ImageF& ll) {
        copy(ll, c.row0, c.col0, shift[kLevels], approx);
    }

    /// Compare against the monolithic pyramid of the window.
    [[nodiscard]] bool matches(const wavehpc::core::Pyramid& ref) const {
        const auto same = [](const ImageF& got, const ImageF& want) {
            for (std::size_t r = 0; r < got.rows(); ++r) {
                for (std::size_t c = 0; c < got.cols(); ++c) {
                    if (!(got(r, c) == want(r, c))) return false;
                }
            }
            return true;
        };
        for (int l = 0; l < kLevels; ++l) {
            const auto& w = ref.levels[static_cast<std::size_t>(l)];
            const auto& g = detail[static_cast<std::size_t>(l)];
            if (!same(g.lh, w.lh) || !same(g.hl, w.hl) || !same(g.hh, w.hh)) return false;
        }
        return same(approx, ref.approx);
    }
};

/// Recycles every tile into the arena, keeps window captures, and records
/// each level-0 tile's arrival for the latency figure.
class BenchSink final : public wavehpc::tile::TileSink {
public:
    BenchSink(wavehpc::core::FloatBufferSource& buffers, const TimedSource& src,
              std::vector<WindowCapture>& windows, std::size_t tile_rows)
        : buffers_(buffers), src_(src), windows_(windows), tile_rows_(tile_rows),
          span_(Tracer::get().intern("bench.sink")) {}

    void on_detail(const TileCoord& coord, DetailBands&& bands) override {
        ScopedSpan s(span_);
        const auto t0 = Clock::now();
        if (coord.level == 0) {
            // Output rows [row0, row0+tile_rows) read input rows up to
            // 2*(row0+tile_rows)+taps-3.
            const std::size_t need =
                std::min(2 * (coord.row0 + tile_rows_) + kTaps - 3, src_.rows() - 1);
            tile_latency_s.add(seconds_between(src_.ready_at(need), t0));
        }
        for (auto& w : windows_) w.take_detail(coord, bands);
        for (ImageF* b : {&bands.lh, &bands.hl, &bands.hh}) buffers_.recycle(b->release_data());
        ++tiles;
        busy_s += seconds_between(t0, Clock::now());
    }
    void on_approx(const TileCoord& coord, ImageF&& ll) override {
        ScopedSpan s(span_);
        const auto t0 = Clock::now();
        for (auto& w : windows_) w.take_approx(coord, ll);
        buffers_.recycle(ll.release_data());
        ++tiles;
        busy_s += seconds_between(t0, Clock::now());
    }

    Samples tile_latency_s;
    std::uint64_t tiles = 0;
    double busy_s = 0.0;

private:
    wavehpc::core::FloatBufferSource& buffers_;
    const TimedSource& src_;
    std::vector<WindowCapture>& windows_;
    std::size_t tile_rows_;
    std::uint32_t span_;
};

struct Inputs {
    wavehpc::tile::TileConfig cfg;
    wavehpc::tile::TilePlan plan;
    std::unique_ptr<wavehpc::svc::BufferArena> arena;
    std::unique_ptr<TimedSource> source;
    /// Same scene, read only to build the verification windows.
    std::unique_ptr<wavehpc::tile::SyntheticTileSource> reference;
};

Inputs set_up(std::uint64_t seed) {
    Inputs in;
    in.cfg = wavehpc::tile::TileConfig::from_env();
    in.plan = wavehpc::tile::TilePlan::build(kEdge, kEdge, kLevels, kTaps, in.cfg);
    wavehpc::svc::ArenaConfig acfg;
    acfg.arena_bytes = std::max<std::uint64_t>(acfg.arena_bytes, 2 * in.plan.resident_bytes_bound());
    in.arena = std::make_unique<wavehpc::svc::BufferArena>(acfg);
    for (const auto& r : in.plan.reservations()) in.arena->reserve(r.floats, r.count);
    // Fault in every reserved slab now, as a long-running stream would have
    // long since done, so the first pass does not pay for the pages.
    std::vector<std::vector<float>> touched;
    for (const auto& r : in.plan.reservations()) {
        for (std::size_t k = 0; k < r.count; ++k) touched.push_back(in.arena->obtain(r.floats, true));
    }
    for (auto& b : touched) in.arena->recycle(std::move(b));
    in.source = std::make_unique<TimedSource>(kEdge, kEdge, derive(seed, 1));
    in.reference = std::make_unique<wavehpc::tile::SyntheticTileSource>(kEdge, kEdge, derive(seed, 1));
    return in;
}

struct Phase {
    Samples pass_s, seal_s, source_share, sink_share, driver_self_s, tile_latency_s;
    Samples mono_ns_per_px, stream_ns_per_px;
    std::uint64_t tiles = 0, ok_tiles = 0, windows_checked = 0, windows_failed = 0;
    std::uint64_t peak_resident = 0, arena_misses = 0;
};

Phase measure(Inputs& in, std::uint64_t seed, double seconds) {
    Phase ph;
    Rng rng(seed);
    const FilterPair fp = FilterPair::daubechies(kTaps);
    const DwtKernel kernel = wavehpc::core::resolve_dwt_kernel(DwtKernel::Auto, fp);
    const std::uint32_t span_stream = Tracer::get().intern("tile.stream_decompose");
    const std::uint32_t span_mono = Tracer::get().intern("core.decompose");
    const auto start = Clock::now();
    while (ph.pass_s.empty() || seconds_between(start, Clock::now()) < seconds) {
        std::vector<WindowCapture> windows;
        const std::size_t slots = (kEdge - kWindow - 64) / 16;
        for (std::size_t w = 0; w < kWindowsPerPass; ++w) windows.emplace_back(16 * rng.below(slots));
        in.source->reset();
        BenchSink sink(*in.arena, *in.source, windows, in.cfg.tile_rows);
        const auto misses0 = in.arena->stats().misses;
        wavehpc::tile::TileStreamStats st;
        {
            ScopedSpan s(span_stream, ph.pass_s.size() + 1);
            st = wavehpc::tile::stream_decompose(*in.source, fp, kLevels, BoundaryMode::Periodic,
                                                 kernel, in.cfg, sink, in.arena.get());
        }
        ph.arena_misses += in.arena->stats().misses - misses0;
        ph.pass_s.add(st.seconds);
        ph.seal_s.add(st.approx_seal_seconds);
        ph.source_share.add(in.source->busy_s / st.seconds);
        ph.sink_share.add(sink.busy_s / st.seconds);
        ph.driver_self_s.add(st.seconds - in.source->busy_s - sink.busy_s);
        ph.tile_latency_s.append(sink.tile_latency_s);
        ph.stream_ns_per_px.add(st.seconds * 1e9 / static_cast<double>(kEdge * kEdge));
        ph.peak_resident = std::max(ph.peak_resident, st.peak_resident_bytes);
        ph.tiles += sink.tiles;

        bool pass_ok = true;
        for (const auto& w : windows) {
            std::vector<float> band(kWindow * kEdge);
            in.reference->read_rows(w.off, kWindow, band);
            ImageF win(kWindow, kWindow);
            for (std::size_t r = 0; r < kWindow; ++r) {
                std::memcpy(&win(r, 0), band.data() + r * kEdge + w.off, kWindow * sizeof(float));
            }
            // The window's monolithic decompose is both the reference and
            // the in-cache speed the stream is compared with (speedup).
            wavehpc::core::Pyramid ref;
            for (int rep = 0; rep < kMonoReps; ++rep) {
                const auto t0 = Clock::now();
                {
                    ScopedSpan s(span_mono);
                    ref = wavehpc::core::decompose(win, fp, kLevels, BoundaryMode::ZeroPad, kernel);
                }
                ph.mono_ns_per_px.add(seconds_between(t0, Clock::now()) * 1e9 /
                                      static_cast<double>(kWindow * kWindow));
            }
            ++ph.windows_checked;
            if (!w.matches(ref)) {
                ++ph.windows_failed;
                pass_ok = false;
            }
        }
        if (pass_ok) ph.ok_tiles += sink.tiles;
    }
    return ph;
}

}  // namespace

void run_stream(const RunArgs& args, Report& rep) {
    std::optional<Inputs> held;
    constexpr int kStreamSetupReps = 11;
    const double setup_s = timed_setup(kStreamSetupReps, held, [&] { return set_up(args.seed); });
    Inputs& in = *held;
    rep.config["scene"] = "16384x16384 SyntheticTileSource, F8/L4 periodic";
    rep.config["tile"] = std::to_string(in.cfg.tile_rows) + "x" + std::to_string(in.cfg.tile_cols);
    rep.config["pool_workers"] = "0 (serial)";

    const std::uint64_t loop_seed = derive(args.seed, 100);
    Phase ph;
    if (args.trace) {
        const Phase plain = measure(in, loop_seed, args.seconds / 2);
        Tracer::get().enable(true);
        ph = measure(in, loop_seed, args.seconds / 2);
        Tracer::get().enable(false);
        rep.set("trace.overhead_share", ph.pass_s.median() / plain.pass_s.median() - 1.0, "share",
                ph.pass_s.size());
    } else {
        ph = measure(in, loop_seed, args.seconds);
    }

    rep.attempted = ph.tiles;
    rep.failed = ph.tiles - ph.ok_tiles;
    if (ph.windows_failed > 0) {
        rep.fail_check("tiled_equals_monolithic: " + std::to_string(ph.windows_failed) + " of " +
                       std::to_string(ph.windows_checked) +
                       " seeded windows differ from monolithic core::decompose");
    }
    const std::size_t passes = ph.pass_s.size();
    const std::size_t n = ph.tile_latency_s.size();
    const double p95_ms = blocked_quantile(ph.tile_latency_s, 0.95) * 1e3;
    const double wall = ph.pass_s.sum();
    const double goodput = static_cast<double>(ph.ok_tiles) / wall;

    rep.set("setup_s", setup_s, "s", kStreamSetupReps);
    rep.set("mpix_per_s",
            static_cast<double>(kEdge * kEdge) / 1e6 / ph.pass_s.median(), "Mpx/s", passes);
    rep.set("latency_p50_ms", ph.tile_latency_s.median() * 1e3, "ms", n);
    rep.set("tail.latency_p95_ms", p95_ms, "ms", n);
    rep.set("tail.latency_p99_ms", ph.tile_latency_s.quantile(tail_quantile(n)) * 1e3, "ms", n);
    // Against the in-cache monolithic runs timed right after each pass, so
    // a slower or faster spell of the host moves both sides of the ratio.
    rep.set("speedup", ph.mono_ns_per_px.median() / ph.stream_ns_per_px.median(), "x",
            ph.mono_ns_per_px.size());
    rep.set("time_to_first_band_s", ph.seal_s.median(), "s", passes);
    rep.set("peak_rss_mib", peak_rss_mib(), "MiB", 1);
    rep.set("goodput_rps", goodput, "1/s", ph.tiles);
    rep.set("rate_at_slo_rps", p95_ms <= kLatencyLimitMs ? goodput : 0.0, "1/s", n);
    rep.set("ok_share", static_cast<double>(ph.ok_tiles) / static_cast<double>(ph.tiles), "share",
            ph.tiles);

    if (!args.trace) return;
    rep.set("tile.source_share", ph.source_share.median(), "share", passes);
    rep.set("tile.sink_share", ph.sink_share.median(), "share", passes);
    rep.set("tile.driver_self_s", ph.driver_self_s.median(), "s", passes);
    rep.set("tile.peak_resident_mib", static_cast<double>(ph.peak_resident) / (1 << 20), "MiB", passes);
    rep.set("tile.resident_bound_mib",
            static_cast<double>(in.plan.resident_bytes_bound()) / (1 << 20), "MiB");
    rep.set("tile.arena_misses", static_cast<double>(ph.arena_misses), "count", passes);
    in.arena.reset();
    probe_layers(kWindow, rep);
    summarize_trace(args, passes, rep);
}

}  // namespace perfbench
