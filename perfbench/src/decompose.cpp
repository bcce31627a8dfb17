// Workload `decompose`: the paper's own problem. Table 1's mix (F8/L1,
// F4/L2, F2/L4) on 512x512 Landsat-TM-like scenes, one closed-loop caller
// through wavelet::decompose_parallel on an nproc-worker pool, in blocks of
// images whose parallel calls run back to back, each block followed by a
// serial core::decompose of the same inputs as the baseline.
// A 1 MiB scene fits in cache, so kernels, row splits and the pool are all
// of the time; svc, shard and tile are bypassed. The size stays at the
// paper's 512x512 on purpose: a larger scene would flatter the speedup.

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/synthetic.hpp"
#include "runtime/thread_pool.hpp"
#include "wavelet/threads_dwt.hpp"

namespace perfbench {
namespace {

using wavehpc::core::BoundaryMode;
using wavehpc::core::FilterPair;
using wavehpc::core::ImageF;
using wavehpc::core::Pyramid;

constexpr std::size_t kEdge = 512;
constexpr std::size_t kScenes = 6;
/// Images per block (a multiple of the mix). The caller issues a block's
/// decompose_parallel calls back to back and then the block's serial
/// baselines, so a pool worker waits microseconds for the next call rather
/// than through a serial one: a vCPU left idle for a millisecond wakes only
/// when the host schedules it, and on a busy shared host that made whole
/// runs' parallel images three times slower.
constexpr std::size_t kBlock = 12;
static_assert(kBlock % kMixCount == 0);
constexpr double kLatencyLimitMs = 20.0;  // per-image p95 limit for rate_at_slo_rps

struct Inputs {
    std::vector<ImageF> scenes;
    std::vector<FilterPair> filters;
    /// Serial core::decompose of every scene and configuration, index
    /// scene * kMixCount + config: every timed result is checked against it
    /// and dropped at once, so no call allocates around results kept alive.
    std::vector<Pyramid> refs;
    std::unique_ptr<wavehpc::runtime::ThreadPool> pool;
};

Inputs set_up(std::uint64_t seed) {
    Inputs in;
    for (std::size_t i = 0; i < kScenes; ++i) {
        in.scenes.push_back(wavehpc::core::landsat_tm_like(kEdge, kEdge, derive(seed, i)));
    }
    for (const auto& m : kTable1) in.filters.push_back(FilterPair::daubechies(m.taps));
    for (const auto& img : in.scenes) {
        for (std::size_t m = 0; m < kMixCount; ++m) {
            in.refs.push_back(wavehpc::core::decompose(img, in.filters[m], kTable1[m].levels,
                                                       BoundaryMode::Periodic));
        }
    }
    in.pool = std::make_unique<wavehpc::runtime::ThreadPool>(nproc());
    // Warm the pool and the kernels once per configuration.
    for (std::size_t m = 0; m < kMixCount; ++m) {
        (void)wavehpc::wavelet::decompose_parallel(in.scenes[0], in.filters[m],
                                                   kTable1[m].levels, BoundaryMode::Periodic,
                                                   *in.pool);
    }
    return in;
}

struct Phase {
    /// Images timed in the run's quiet stretches (see quiet_stretches).
    Samples parallel_s, serial_s;
    Samples parallel_by_cfg[kMixCount], serial_by_cfg[kMixCount];
    std::uint64_t attempted = 0, verified = 0, mismatched = 0;
    double quiet_share = 0.0;      ///< share of the images kept
    double parallel_busy_s = 0.0;  ///< every image's decompose_parallel time
    wavehpc::runtime::PoolMetrics pool_before, pool_after;
    double wall_s = 0.0;
};

Phase measure(Inputs& in, std::uint64_t seed, double seconds) {
    Phase ph;
    Rng rng(seed);
    const std::uint32_t span_par = Tracer::get().intern("wavelet.decompose_parallel");
    const std::uint32_t span_ser = Tracer::get().intern("core.decompose");
    struct Timed {
        std::size_t m;
        Clock::time_point at;  ///< start of the image's decompose_parallel call
        double tp, ts;
    };
    std::vector<Timed> timed;
    StealSampler sampler;
    ph.pool_before = in.pool->metrics();
    const auto start = Clock::now();
    for (std::uint64_t block = 0; seconds_between(start, Clock::now()) < seconds; ++block) {
        const std::uint64_t id = 1 + block * kBlock;  // request id of the block's first image
        struct Job {
            std::size_t scene = 0, m = 0;
            Clock::time_point at;
            double tp = 0.0;
            bool ok = false;
        };
        std::array<Job, kBlock> jobs;
        for (std::size_t k = 0; k < kBlock; ++k) {
            jobs[k].m = (k + block) % kMixCount;  // the block's first call rotates
            jobs[k].scene = rng.below(kScenes);
        }
        for (std::size_t k = 0; k < kBlock; ++k) {
            Job& j = jobs[k];
            const auto t0 = Clock::now();
            Pyramid par;
            {
                ScopedSpan s(span_par, id + k);
                par = wavehpc::wavelet::decompose_parallel(in.scenes[j.scene], in.filters[j.m],
                                                           kTable1[j.m].levels,
                                                           BoundaryMode::Periodic, *in.pool);
            }
            j.at = t0;
            j.tp = seconds_between(t0, Clock::now());
            j.ok = pyramids_equal(par, in.refs[j.scene * kMixCount + j.m]);
        }
        for (std::size_t k = 0; k < kBlock; ++k) {
            const Job& j = jobs[k];
            ++ph.attempted;
            const auto t0 = Clock::now();
            Pyramid ser;
            {
                ScopedSpan s(span_ser, id + k);
                ser = wavehpc::core::decompose(in.scenes[j.scene], in.filters[j.m],
                                               kTable1[j.m].levels, BoundaryMode::Periodic);
            }
            const double ts = seconds_between(t0, Clock::now());

            timed.push_back({j.m, j.at, j.tp, ts});
            if (j.ok && pyramids_equal(ser, in.refs[j.scene * kMixCount + j.m])) {
                ++ph.verified;
            } else {
                ++ph.mismatched;
            }
        }
    }
    ph.wall_s = seconds_between(start, Clock::now());
    ph.pool_after = in.pool->metrics();

    const QuietTimeline quiet = sampler.finish();
    bool any_quiet = false;
    for (const Timed& t : timed) any_quiet = any_quiet || quiet.quiet_at(t.at);
    for (const Timed& t : timed) {
        ph.parallel_busy_s += t.tp;
        if (any_quiet && !quiet.quiet_at(t.at)) continue;
        ph.parallel_s.add(t.tp);
        ph.serial_s.add(t.ts);
        ph.parallel_by_cfg[t.m].add(t.tp);
        ph.serial_by_cfg[t.m].add(t.ts);
    }
    ph.quiet_share = static_cast<double>(ph.parallel_s.size()) / static_cast<double>(timed.size());
    return ph;
}

}  // namespace

void run_decompose(const RunArgs& args, Report& rep) {
    std::optional<Inputs> held;
    const double setup_s = timed_setup(kSetupReps, held, [&] { return set_up(args.seed); });
    Inputs& in = *held;
    rep.config["scene"] = "512x512 landsat_tm_like x " + std::to_string(kScenes);
    rep.config["pool_workers"] = std::to_string(in.pool->workers());
    rep.config["caller"] = "closed loop, 1 caller";

    const std::uint64_t loop_seed = derive(args.seed, 100);
    Phase ph;
    if (args.trace) {
        const Phase plain = measure(in, loop_seed, args.seconds / 2);
        Tracer::get().enable(true);
        ph = measure(in, loop_seed, args.seconds / 2);
        Tracer::get().enable(false);
        rep.set("trace.overhead_share", ph.parallel_s.median() / plain.parallel_s.median() - 1.0,
                "share", ph.parallel_s.size());
    } else {
        ph = measure(in, loop_seed, args.seconds);
    }

    rep.attempted = ph.attempted;
    rep.failed = ph.attempted - ph.verified;
    if (ph.mismatched > 0) {
        rep.fail_check("bit_identity: " + std::to_string(ph.mismatched) +
                       " images whose decompose_parallel or timed serial core::decompose result "
                       "differs from the set-up's serial core::decompose");
    }
    const std::size_t n = ph.parallel_s.size();
    const double px = static_cast<double>(kEdge * kEdge);
    const double busy = ph.parallel_busy_s;
    const double p95_ms = blocked_quantile(ph.parallel_s, 0.95) * 1e3;
    // Throughput and speedup come from the per-configuration medians, one
    // image of each Table 1 configuration in turn, so a burst of contention
    // from outside the process moves them no more than it moves a median.
    double par_mix_s = 0.0, ser_mix_s = 0.0;
    for (std::size_t m = 0; m < kMixCount; ++m) {
        par_mix_s += ph.parallel_by_cfg[m].median();
        ser_mix_s += ph.serial_by_cfg[m].median();
    }
    const double ok_share = static_cast<double>(ph.verified) / static_cast<double>(ph.attempted);
    const double goodput = ok_share * static_cast<double>(kMixCount) / par_mix_s;

    rep.set("setup_s", setup_s, "s", kSetupReps);
    rep.set("mpix_per_s", goodput * px / 1e6, "Mpx/s", n);
    rep.set("latency_p50_ms", ph.parallel_s.median() * 1e3, "ms", n);
    rep.set("tail.latency_p95_ms", p95_ms, "ms", n);
    rep.set("tail.latency_p99_ms", ph.parallel_s.quantile(tail_quantile(n)) * 1e3, "ms", n);
    rep.set("speedup", ser_mix_s / par_mix_s, "x", n);
    rep.set("time_to_first_band_s", ph.parallel_s.median(), "s", n);
    rep.set("peak_rss_mib", peak_rss_mib(), "MiB", 1);
    rep.set("goodput_rps", goodput, "1/s", n);
    rep.set("rate_at_slo_rps", p95_ms <= kLatencyLimitMs ? goodput : 0.0, "1/s", n);
    rep.set("ok_share", ok_share, "share", ph.attempted);
    rep.set("host.quiet_share", ph.quiet_share, "share", ph.attempted);

    if (!args.trace) return;
    for (std::size_t m = 0; m < kMixCount; ++m) {
        const std::string k = kTable1[m].key;
        rep.set("wavelet.parallel_ms." + k, ph.parallel_by_cfg[m].median() * 1e3, "ms",
                ph.parallel_by_cfg[m].size());
        rep.set("core.ns_per_px." + k, ph.serial_by_cfg[m].median() * 1e9 / px, "ns/px",
                ph.serial_by_cfg[m].size());
    }
    const auto& a = ph.pool_before;
    const auto& b = ph.pool_after;
    const double tasks = static_cast<double>(b.tasks_executed - a.tasks_executed);
    rep.set("runtime.tasks_per_image", tasks / static_cast<double>(ph.attempted), "count", ph.attempted);
    rep.set("runtime.helper_share",
            tasks > 0 ? static_cast<double>(b.helper_tasks - a.helper_tasks) / tasks : 0.0, "share");
    // Workers idle through every serial baseline call; count only the idle
    // time that falls inside decompose_parallel calls.
    const double workers = static_cast<double>(in.pool->workers());
    const double idle_in_parallel =
        (b.idle_seconds - a.idle_seconds) - workers * (ph.wall_s - busy);
    rep.set("runtime.idle_share", std::max(0.0, idle_in_parallel) / (workers * busy), "share");
    in.pool.reset();
    probe_layers(kEdge, rep);
    summarize_trace(args, ph.attempted, rep);
}

}  // namespace perfbench
