// Serving workloads: an open loop of seeded Poisson arrivals at fixed
// absolute rate steps, offered to an in-process PyramidService
// (`service_hot`) or to a ShardCluster with nproc shards (`shard_cold`).
//
// The rate steps are constants of this file, never scaled from a capacity
// measured on the code under test, so a slower program meets the same
// offered load. Every request is timed from the moment it was due, which
// charges a stalled sender's delay to the requests behind it, and the
// generator's own lateness is reported (load.late_ms.p99). The lowest step
// is the reference whose latency is quoted; it gets two thirds of the run.
// Admission is widened so the top step, which is set above capacity, builds
// a queue instead of refusing work: its completion rate is the capacity.
//
// service_hot: Table 1 mix over 256x256 scenes; 30% of requests hit the
// cache, 52.5% join an in-flight compute and 17.5% compute (see the chooser
// in run_service_hot): admission, the digest memo, the cache, single-flight
// joins, batching and the arena do the work; the shard wire is bypassed.
//
// shard_cold: Table 1 mix, every arrival a distinct 192x192 scene, so
// every request misses and carries a full plane over the shard wire in
// both directions. No chaos plan, no stall, no fault plan: the wire's CRC
// and copy cost is what the workload exposes.

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/kernels.hpp"
#include "core/synthetic.hpp"
#include "runtime/thread_pool.hpp"
#include "svc/service.hpp"
#include "svc/shard/cluster.hpp"

namespace perfbench {

namespace {

using wavehpc::core::BoundaryMode;
using wavehpc::core::FilterPair;
using wavehpc::core::ImageF;
using wavehpc::svc::SubmitResult;
using wavehpc::svc::TransformFuture;
using wavehpc::svc::TransformRequest;
using wavehpc::svc::TransformResult;

using ScenePtr = std::shared_ptr<const ImageF>;
using SubmitFn = std::function<SubmitResult(TransformRequest)>;

constexpr std::size_t kWaiters = 16;
constexpr std::size_t kBaseScenes = 8;
/// Sender threads share a step's arrivals, so one request stuck in submit
/// does not hold back the ones behind it.
constexpr std::size_t kSenders = 4;
/// A sender sleeps until this long before a due time, then spins, so the
/// scheduler's wake-up delay stays out of the measured latency.
constexpr std::chrono::microseconds kSpin{100};

struct Workload {
    const char* name;
    std::size_t edge;
    std::vector<double> steps_rps;  ///< ascending, absolute; [0] is the reference
    double latency_limit_ms;        ///< p95 limit for rate_at_slo_rps
    std::uint64_t check_every;      ///< about one request in this many is bit-compared
};

// The latency limits sit well above the reference step's p95 even while a
// neighbour on a shared host doubles it, and far below the p95 of a step
// past capacity, so a step passes or fails for the program's sake.
const Workload kServiceHot{"service_hot", 256, {1000.0, 4000.0, 8000.0}, 50.0, 32};
const Workload kShardCold{"shard_cold", 192, {50.0, 300.0, 400.0}, 150.0, 8};
constexpr std::size_t kHotScenes = 32;    // service_hot: always cached
constexpr std::size_t kColdScenes = 384;  // service_hot: cycled, never cached when re-asked
constexpr std::size_t kBurst = 4;         // service_hot: clients asking for a cold scene at once
constexpr double kHotEventShare = 0.63;   // service_hot: arrivals that are hot (30% of requests)

struct Arrival {
    double at_s = 0.0;
    std::size_t scene = 0;
    std::size_t mix = 0;
    bool check = false;
};

struct Outcome {
    Clock::time_point due, sent, done;
    double submit_s = 0.0;
    bool accepted = false;
    bool value = false;
    bool computed = false;
    double queue_s = 0.0, compute_s = 0.0;
    std::uint32_t batch = 1;
    std::shared_ptr<const TransformResult> result;  ///< kept for checked requests
};

/// A distinct scene: a base scene with one seeded pixel changed, so its
/// content digest (and cache key) is its own while the work is the same.
ScenePtr variant(const ImageF& base, std::uint64_t tag) {
    auto img = std::make_shared<ImageF>(base);
    Rng r(tag);
    (*img)(r.below(img->rows()), r.below(img->cols())) += 1.0F + static_cast<float>(r.below(1000));
    return img;
}

std::vector<ImageF> base_scenes(std::size_t edge, std::uint64_t seed) {
    std::vector<ImageF> out;
    for (std::size_t i = 0; i < kBaseScenes; ++i) {
        out.push_back(wavehpc::core::landsat_tm_like(edge, edge, derive(seed, 10 + i)));
    }
    return out;
}

/// Table 1 weighted toward the cheap filter, as a browsing client would.
constexpr double kMixWeights[kMixCount] = {0.40, 0.35, 0.25};

std::size_t pick_mix(Rng& r) {
    const double u = r.uniform();
    return u < kMixWeights[0] ? 0 : (u < kMixWeights[0] + kMixWeights[1] ? 1 : 2);
}

/// Fills arrival `i`'s scene and configuration; may move it back to an
/// earlier arrival's time (a burst), never later.
using Chooser = std::function<void(Rng&, std::size_t, Arrival&)>;

/// Seeded Poisson arrivals for one step: rps*seconds arrival times drawn
/// uniformly over the step and sorted (a Poisson process conditioned on
/// its count, so every step offers exactly its nominal rate).
std::vector<Arrival> schedule(std::uint64_t seed, double rps, double seconds, std::uint64_t check_every,
                              const Chooser& choose) {
    Rng r(seed);
    const auto n = static_cast<std::size_t>(rps * seconds);
    std::vector<double> at(n);
    for (auto& t : at) t = r.uniform() * seconds;
    std::sort(at.begin(), at.end());
    std::vector<Arrival> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        out[i].at_s = at[i];
        choose(r, i, out[i]);
        out[i].check = r.below(check_every) == 0;
    }
    return out;
}

struct StepStats {
    double rps = 0.0;
    std::size_t attempted = 0, values = 0, refused = 0, failed = 0, mismatched = 0, checked = 0;
    Samples latency_s;  ///< failed/refused requests enter as +inf (a latency miss)
    Samples late_s, submit_s, queue_s, compute_s, batch;
    /// Completion rate: 99% of the verified completions over the time from
    /// the step's start until 99% of them had completed, so one straggler
    /// cannot halve it.
    double achieved_rps = 0.0;
    double first_q_p50 = 0.0, last_q_p50 = 0.0;
    /// Every request's due time and latency, in arrival order, for the
    /// quiet-stretch median.
    std::vector<Clock::time_point> due;
    std::vector<double> latency;
    [[nodiscard]] bool meets(double limit_s) const {
        const bool backlog_ok = last_q_p50 <= std::max(2.0 * first_q_p50, first_q_p50 + 0.25 * limit_s);
        return latency_s.quantile(0.95) <= limit_s && backlog_ok;
    }
};

/// Offer one step's arrivals open-loop and collect every outcome.
/// `t0` receives the step's start: arrival times count from it.
std::vector<Outcome> offer(const SubmitFn& submit, const std::vector<ScenePtr>& scenes,
                           const std::vector<Arrival>& arr, std::uint64_t id_base,
                           std::uint32_t span_submit, std::uint32_t span_request,
                           Clock::time_point& t0) {
    const std::size_t n = arr.size();
    std::vector<Outcome> out(n);
    std::vector<TransformFuture> fut(n);
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::size_t> queue;
    bool senders_done = false;
    std::atomic<std::size_t> next{0};
    t0 = Clock::now() + std::chrono::milliseconds(5);

    const auto finish = [&](std::size_t i, const TransformFuture& f, Clock::time_point t) {
        Outcome& o = out[i];
        o.done = t;
        try {
            const auto& reply = f.get();
            o.value = true;
            o.computed = reply.compute_seconds > 0.0;
            o.queue_s = reply.queue_seconds;
            o.compute_s = reply.compute_seconds;
            o.batch = reply.batch_size;
            if (arr[i].check) o.result = reply.result;
        } catch (const std::exception&) {
            o.value = false;
        }
        record_interval(span_request, id_base + i, o.due, o.done);
    };

    const auto sender = [&] {
        prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);  // wake on time, not 50 us late
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= n) return;
            Outcome& o = out[i];
            o.due = t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(arr[i].at_s));
            std::this_thread::sleep_until(o.due - kSpin);
            while (Clock::now() < o.due) {
            }
            TransformRequest req;
            req.image = scenes[arr[i].scene];
            req.taps = kTable1[arr[i].mix].taps;
            req.levels = kTable1[arr[i].mix].levels;
            o.sent = Clock::now();
            SubmitResult r;
            try {
                ScopedSpan s(span_submit, id_base + i);
                r = submit(std::move(req));
            } catch (const std::exception&) {
                r.accepted = false;  // counted as refused, a latency miss
            }
            const auto ret = Clock::now();
            o.submit_s = seconds_between(o.sent, ret);
            o.accepted = r.accepted;
            if (!r.accepted) {
                o.done = ret;
                continue;
            }
            if (r.future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
                finish(i, r.future, ret);
                continue;
            }
            fut[i] = std::move(r.future);
            {
                std::lock_guard lk(mu);
                queue.push_back(i);
            }
            cv.notify_one();
        }
    };
    const auto waiter = [&] {
        for (;;) {
            std::size_t i = 0;
            {
                std::unique_lock lk(mu);
                cv.wait(lk, [&] { return senders_done || !queue.empty(); });
                if (queue.empty()) return;
                i = queue.front();
                queue.pop_front();
            }
            fut[i].wait();
            finish(i, fut[i], Clock::now());
            fut[i] = {};  // release the reply now, not when the step ends
        }
    };

    std::vector<std::thread> waiters, senders;
    for (std::size_t k = 0; k < kWaiters; ++k) waiters.emplace_back(waiter);
    for (std::size_t k = 0; k < kSenders; ++k) senders.emplace_back(sender);
    for (auto& t : senders) t.join();
    {
        std::lock_guard lk(mu);
        senders_done = true;
    }
    cv.notify_all();
    for (auto& t : waiters) t.join();
    return out;
}

/// Step statistics plus bit-identity of the checked replies against serial
/// core::decompose.
StepStats summarize(double rps, Clock::time_point start, const std::vector<Outcome>& out,
                    const std::vector<Arrival>& arr, const std::vector<ScenePtr>& scenes) {
    StepStats st;
    st.rps = rps;
    st.attempted = out.size();
    if (out.empty()) return st;
    const double inf = std::numeric_limits<double>::infinity();
    Samples done_s;  // completion times of verified replies, from the step start
    std::size_t ok = 0;
    Samples first_q, last_q;
    for (std::size_t i = 0; i < out.size(); ++i) {
        const Outcome& o = out[i];
        st.late_s.add(seconds_between(o.due, o.sent));
        st.submit_s.add(o.submit_s);
        if (!o.accepted) ++st.refused;
        if (o.accepted && !o.value) ++st.failed;
        bool good = o.value;
        if (good && arr[i].check && o.result) {
            const auto& m = kTable1[arr[i].mix];
            const FilterPair fp = FilterPair::daubechies(m.taps);
            const auto ref = wavehpc::core::decompose(
                *scenes[arr[i].scene], fp, m.levels, BoundaryMode::Periodic,
                wavehpc::core::resolve_dwt_kernel(wavehpc::core::DwtKernel::Auto, fp));
            ++st.checked;
            if (!pyramids_equal(o.result->pyramid, ref)) {
                ++st.mismatched;
                good = false;
            }
        }
        const double lat = good ? seconds_between(o.due, o.done) : inf;
        st.latency_s.add(lat);
        st.due.push_back(o.due);
        st.latency.push_back(lat);
        if (i < out.size() / 4) {
            first_q.add(lat);
        } else if (i >= out.size() - out.size() / 4) {
            last_q.add(lat);
        }
        if (good) {
            ++ok;
            done_s.add(seconds_between(start, o.done));
            if (o.computed) {
                st.queue_s.add(o.queue_s);
                st.compute_s.add(o.compute_s);
                st.batch.add(static_cast<double>(o.batch));
            }
        }
    }
    st.values = ok;
    st.first_q_p50 = first_q.median();
    st.last_q_p50 = last_q.median();
    st.achieved_rps = 0.99 * static_cast<double>(ok) / std::max(1e-9, done_s.quantile(0.99));
    return st;
}

struct Phase {
    std::vector<StepStats> steps;
    QuietTimeline quiet;
    double wall_s = 0.0;
};

/// The values taken in quiet stretches, or all of them when none was.
Samples quiet_samples(const QuietTimeline& q, const std::vector<Clock::time_point>& at,
                      const std::vector<double>& v) {
    Samples kept, all;
    for (std::size_t i = 0; i < v.size(); ++i) {
        all.add(v[i]);
        if (q.quiet_at(at[i])) kept.add(v[i]);
    }
    return kept.empty() ? all : kept;
}

/// Reference-step latencies of the requests due in quiet stretches.
Samples quiet_reference(const Phase& ph) {
    const StepStats& ref = ph.steps.front();
    return quiet_samples(ph.quiet, ref.due, ref.latency);
}

/// Run every step once. `scenes_for` builds the scene list a step's
/// arrivals index (and may keep it alive for the step only).
Phase run_steps(const Workload& w, const SubmitFn& submit, std::uint64_t seed, double seconds,
                const std::function<std::vector<ScenePtr>(std::size_t, std::size_t)>& scenes_for,
                const Chooser& choose,
                std::uint64_t& id_base) {
    Phase ph;
    const std::string layer = std::string(w.name) == "shard_cold" ? "shard" : "svc";
    const std::uint32_t span_submit = Tracer::get().intern(layer + ".submit");
    const std::uint32_t span_request = Tracer::get().intern(layer + ".request");
    const auto steps = static_cast<double>(w.steps_rps.size());
    StealSampler sampler;
    const auto start = Clock::now();
    for (std::size_t k = 0; k < w.steps_rps.size(); ++k) {
        const double step_s = k == 0 ? seconds * 2 / 3 : seconds / 3 / (steps - 1);
        const auto arr = schedule(derive(seed, k), w.steps_rps[k], step_s, w.check_every, choose);
        const auto scenes = scenes_for(k, arr.size());
        Clock::time_point t0;
        const auto out = offer(submit, scenes, arr, id_base, span_submit, span_request, t0);
        id_base += arr.size();
        ph.steps.push_back(summarize(w.steps_rps[k], t0, out, arr, scenes));
    }
    ph.wall_s = seconds_between(start, Clock::now());
    ph.quiet = sampler.finish();
    return ph;
}

/// End-to-end metrics of a serving phase, plus the load.* layer counts.
void report_phase(const Workload& w, const Phase& ph, double setup_s, Report& rep) {
    const StepStats& top = ph.steps.back();
    const double limit_s = w.latency_limit_ms / 1e3;
    double rate_at_slo = 0.0;
    for (const auto& st : ph.steps) {
        if (st.meets(limit_s)) rate_at_slo = st.achieved_rps;
    }
    std::uint64_t attempted = 0, ok = 0, refused = 0, failed = 0, mismatched = 0;
    Samples late;
    for (const auto& st : ph.steps) {
        attempted += st.attempted;
        ok += st.values;
        refused += st.refused;
        failed += st.failed;
        mismatched += st.mismatched;
        late.append(st.late_s);
    }
    rep.attempted = attempted;
    rep.failed = attempted - ok;
    if (mismatched > 0) {
        rep.fail_check("bit_identity: " + std::to_string(mismatched) +
                       " replies differ from serial core::decompose");
    }
    // The reference-step median comes from the requests due in the run's
    // quiet stretches (see quiet_stretches); the tails from all of them.
    const Samples& ref = ph.steps.front().latency_s;
    const Samples quiet_ref = quiet_reference(ph);
    const std::size_t n = quiet_ref.size();
    const double p50 = quiet_ref.median();
    const double goodput = top.achieved_rps;
    const double px = static_cast<double>(w.edge * w.edge);
    rep.set("setup_s", setup_s, "s", kSetupReps);
    rep.set("mpix_per_s", goodput * px / 1e6, "Mpx/s", top.values);
    rep.set("latency_p50_ms", p50 * 1e3, "ms", n);
    rep.set("tail.latency_p95_ms", blocked_quantile(ref, 0.95) * 1e3, "ms", ref.size());
    rep.set("tail.latency_p99_ms", ref.quantile(tail_quantile(ref.size())) * 1e3, "ms", ref.size());
    rep.set("host.quiet_share", static_cast<double>(n) / static_cast<double>(ref.size()), "share", ref.size());
    // How many times the reference load the program completes when pushed
    // past capacity.
    rep.set("speedup", goodput / ph.steps.front().achieved_rps, "x", top.values);
    rep.set("time_to_first_band_s", p50, "s", n);
    rep.set("peak_rss_mib", peak_rss_mib(), "MiB", 1);
    rep.set("goodput_rps", goodput, "1/s", top.values);
    rep.set("rate_at_slo_rps", rate_at_slo, "1/s", ph.steps.size());
    rep.set("ok_share", static_cast<double>(ok) / static_cast<double>(attempted), "share", attempted);

    rep.set("load.late_ms.p99", late.quantile(tail_quantile(late.size())) * 1e3, "ms", late.size());
    rep.set("load.sent", static_cast<double>(attempted), "count");
    rep.set("load.completed", static_cast<double>(ok), "count");
    rep.set("load.failed", static_cast<double>(failed), "count");
    rep.set("load.refused", static_cast<double>(refused), "count");
    for (std::size_t k = 0; k < ph.steps.size(); ++k) {
        const auto& st = ph.steps[k];
        std::printf("  step %.0f rps: achieved %.1f rps, p50 %.4g ms, p95 %.4g ms, p99 %.4g ms, late p99 %.3f ms, "
                    "late p50 %.3f ms, refused %zu, failed %zu, checked %zu, %s\n",
                    st.rps, st.achieved_rps, st.latency_s.median() * 1e3, st.latency_s.quantile(0.95) * 1e3,
                    st.latency_s.quantile(tail_quantile(st.latency_s.size())) * 1e3,
                    st.late_s.quantile(0.99) * 1e3, st.late_s.median() * 1e3, st.refused, st.failed, st.checked,
                    st.meets(limit_s) ? "meets SLO" : "misses SLO");
    }
}

/// svc.* per-layer metrics from request outcomes and service counters.
void report_svc_layer(const Phase& ph, const wavehpc::svc::MetricsSnapshot& m,
                      const wavehpc::svc::CacheStats& c, const wavehpc::svc::ArenaStats& a,
                      bool sharded, Report& rep) {
    Samples submit, queue, compute, batch;
    for (const auto& st : ph.steps) {
        submit.append(st.submit_s);
        queue.append(st.queue_s);
        compute.append(st.compute_s);
        batch.append(st.batch);
    }
    const std::string sub = sharded ? "shard.submit_us." : "svc.submit_us.";
    rep.set(sub + "p50", submit.median() * 1e6, "us", submit.size());
    rep.set(sub + "p99", submit.quantile(tail_quantile(submit.size())) * 1e6, "us", submit.size());
    rep.set("svc.queue_wait_ms.p50", queue.median() * 1e3, "ms", queue.size());
    rep.set("svc.queue_wait_ms.p99", queue.quantile(tail_quantile(queue.size())) * 1e3, "ms", queue.size());
    rep.set("svc.compute_ms.p50", compute.median() * 1e3, "ms", compute.size());
    rep.set("svc.compute_ms.p99", compute.quantile(tail_quantile(compute.size())) * 1e3, "ms", compute.size());
    rep.set("svc.batch.mean_size", batch.mean(), "count", batch.size());
    const auto share = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    rep.set("svc.cache.hit_share", share(static_cast<double>(c.hits), static_cast<double>(c.hits + c.misses)), "share");
    rep.set("svc.dedup_share", share(static_cast<double>(m.counters.dedup_joins), static_cast<double>(m.counters.submitted)), "share");
    rep.set("svc.arena.miss_share", share(static_cast<double>(a.misses), static_cast<double>(a.hits + a.misses)), "share");
    rep.set("svc.rejected_share", share(static_cast<double>(m.counters.rejected), static_cast<double>(m.counters.submitted)), "share");
}

std::string steps_text(const Workload& w) {
    std::string out;
    for (const double r : w.steps_rps) {
        if (!out.empty()) out += ' ';
        out += std::to_string(static_cast<int>(r));
    }
    return out;
}

wavehpc::svc::ServiceConfig wide_admission(wavehpc::svc::ServiceConfig cfg) {
    cfg.max_queue_depth = std::size_t{1} << 20;
    cfg.max_queued_bytes = std::uint64_t{1} << 40;
    return cfg;
}

std::uint64_t total_ops(const Phase& ph) {
    std::uint64_t n = 0;
    for (const auto& st : ph.steps) n += st.attempted;
    return n;
}

}  // namespace

void run_service_hot(const RunArgs& args, Report& rep) {
    const Workload& w = kServiceHot;
    struct Env {
        std::vector<ScenePtr> scenes;
        std::unique_ptr<wavehpc::runtime::ThreadPool> pool;
        std::unique_ptr<wavehpc::svc::PyramidService> svc;
    };
    // An arrival asks for a hot scene, whose keys stay cached (warmed in
    // set-up), or is a burst of kBurst clients asking at once for the next
    // scene of a cold pool cycled in order: one computes, the rest join it
    // in flight. 30% of requests hit, 17.5% compute and 52.5% join, so the
    // median is a join, a compute's length, and not a few-microsecond
    // cache hit that drifts by a third between runs on a shared host. The
    // shares are the workload's, not an accident of cache dynamics.
    struct {
        std::size_t next_cold = 0, burst_left = 0;
        Arrival lead;
    } st;
    const Chooser choose = [&st](Rng& r, std::size_t i, Arrival& a) {
        if (i == 0) st.burst_left = 0;  // a burst never spills into the next step
        if (st.burst_left > 0) {
            --st.burst_left;
            a.scene = st.lead.scene;
            a.mix = st.lead.mix;
            a.at_s = st.lead.at_s;
            return;
        }
        a.mix = pick_mix(r);
        if (r.uniform() < kHotEventShare) {
            a.scene = r.below(kHotScenes);
            return;
        }
        a.scene = kHotScenes + st.next_cold++ % kColdScenes;
        st.lead = a;
        st.burst_left = kBurst - 1;
    };

    std::optional<Env> held;
    const auto set_up = [&] {
        Env env;
        const auto base = base_scenes(w.edge, args.seed);
        for (std::size_t i = 0; i < kHotScenes + kColdScenes; ++i) {
            env.scenes.push_back(variant(base[i % kBaseScenes], derive(args.seed, 1000 + i)));
        }
        env.pool = std::make_unique<wavehpc::runtime::ThreadPool>(nproc());
        env.svc = std::make_unique<wavehpc::svc::PyramidService>(
            *env.pool, wide_admission(wavehpc::svc::ServiceConfig::from_env()));
        // Warm the cache with every hot key.
        std::vector<TransformFuture> warm;
        for (std::size_t s = 0; s < kHotScenes; ++s) {
            for (const auto& m : kTable1) {
                TransformRequest req;
                req.image = env.scenes[s];
                req.taps = m.taps;
                req.levels = m.levels;
                auto r = env.svc->submit(std::move(req));
                if (r.accepted) warm.push_back(std::move(r.future));
            }
        }
        for (auto& f : warm) f.wait();
        return env;
    };
    const double setup_s = timed_setup(kSetupReps, held, set_up);
    Env& env = *held;
    rep.config["scene"] = "256x256 landsat_tm_like variants: " + std::to_string(kHotScenes) +
                          " hot (30% of requests), " + std::to_string(kColdScenes) +
                          " cold, cycled, each asked by a burst of " + std::to_string(kBurst);
    rep.config["pool_workers"] = std::to_string(env.pool->workers());
    rep.config["shards"] = "0 (in-process service)";
    rep.config["steps_rps"] = steps_text(w);
    rep.config["latency_limit_ms"] = "50 (p95)";

    const SubmitFn submit = [&env](TransformRequest r) { return env.svc->submit(std::move(r)); };
    const auto scenes_for = [&env](std::size_t, std::size_t) { return env.scenes; };
    std::uint64_t ids = 1;
    const std::uint64_t loop_seed = derive(args.seed, 100);
    Phase ph;
    if (args.trace) {
        const Phase plain = run_steps(w, submit, loop_seed, args.seconds / 2, scenes_for, choose, ids);
        Tracer::get().enable(true);
        ph = run_steps(w, submit, loop_seed, args.seconds / 2, scenes_for, choose, ids);
        Tracer::get().enable(false);
        rep.set("trace.overhead_share",
                ph.steps.front().latency_s.median() / plain.steps.front().latency_s.median() - 1.0,
                "share", ph.steps.front().latency_s.size());
    } else {
        ph = run_steps(w, submit, loop_seed, args.seconds, scenes_for, choose, ids);
    }
    report_phase(w, ph, setup_s, rep);
    if (!args.trace) return;
    const auto m = env.svc->metrics();
    const auto c = env.svc->cache_stats();
    const auto a = env.svc->arena_stats();
    env.svc->shutdown();
    report_svc_layer(ph, m, c, a, false, rep);
    env.svc.reset();
    env.pool.reset();
    probe_layers(w.edge, rep);
    summarize_trace(args, total_ops(ph), rep);
}

void run_shard_cold(const RunArgs& args, Report& rep) {
    const Workload& w = kShardCold;
    const std::size_t shards = nproc();
    struct Env {
        std::vector<ImageF> base;
        std::unique_ptr<wavehpc::runtime::ThreadPool> pool;
        std::unique_ptr<wavehpc::svc::shard::ShardCluster> cluster;
    };
    std::optional<Env> held;
    const auto set_up = [&] {
        Env env;
        env.base = base_scenes(w.edge, args.seed);
        env.pool = std::make_unique<wavehpc::runtime::ThreadPool>(nproc());
        auto cfg = wavehpc::svc::shard::ShardClusterConfig::from_env();
        cfg.shard_count = shards;
        cfg.service = wide_admission(cfg.service);
        env.cluster = std::make_unique<wavehpc::svc::shard::ShardCluster>(*env.pool, cfg);
        return env;
    };
    const double setup_s = timed_setup(kSetupReps, held, set_up);
    Env& env = *held;
    rep.config["scene"] = "192x192 landsat_tm_like, a distinct variant per request";
    rep.config["pool_workers"] = std::to_string(env.pool->workers());
    rep.config["shards"] = std::to_string(env.cluster->shard_count());
    rep.config["steps_rps"] = steps_text(w);
    rep.config["latency_limit_ms"] = "150 (p95)";

    const SubmitFn submit = [&env](TransformRequest r) { return env.cluster->submit(std::move(r)).result; };
    std::uint64_t step_tag = 0;
    const auto scenes_for = [&](std::size_t, std::size_t n) {
        std::vector<ScenePtr> s;
        s.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            s.push_back(variant(env.base[i % kBaseScenes], derive(args.seed, (++step_tag) << 8)));
        }
        return s;
    };
    const Chooser choose = [](Rng& r, std::size_t i, Arrival& a) {
        a.scene = i;
        a.mix = pick_mix(r);
    };
    std::uint64_t ids = 1;
    const std::uint64_t loop_seed = derive(args.seed, 100);
    Phase ph;
    wavehpc::svc::shard::WireStats wire0;
    wavehpc::svc::shard::ClusterCounters cc0;
    double gossip_fps = 0.0;
    if (args.trace) {
        const Phase plain = run_steps(w, submit, loop_seed, args.seconds / 2, scenes_for, choose, ids);
        // Gossip-only frame rate, measured while no request is in flight.
        const auto idle0 = env.cluster->wire_stats().frames_sent;
        const auto t_idle = Clock::now();
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        gossip_fps = static_cast<double>(env.cluster->wire_stats().frames_sent - idle0) /
                     seconds_between(t_idle, Clock::now());
        wire0 = env.cluster->wire_stats();
        cc0 = env.cluster->counters();
        Tracer::get().enable(true);
        ph = run_steps(w, submit, loop_seed, args.seconds / 2, scenes_for, choose, ids);
        Tracer::get().enable(false);
        rep.set("trace.overhead_share",
                ph.steps.front().latency_s.median() / plain.steps.front().latency_s.median() - 1.0,
                "share", ph.steps.front().latency_s.size());
    } else {
        ph = run_steps(w, submit, loop_seed, args.seconds, scenes_for, choose, ids);
    }
    report_phase(w, ph, setup_s, rep);
    if (!args.trace) return;

    const auto wire1 = env.cluster->wire_stats();
    const auto cc1 = env.cluster->counters();
    const auto m = env.cluster->fleet_metrics();
    const auto c = env.cluster->fleet_cache_stats();
    const auto a = env.cluster->fleet_arena_stats();
    env.cluster->shutdown();
    report_svc_layer(ph, m, c, a, true, rep);
    const double frames = static_cast<double>(wire1.frames_sent - wire0.frames_sent);
    const double routed = static_cast<double>(cc1.routed - cc0.routed);
    rep.set("shard.wire.frames_per_request", routed > 0 ? frames / routed : 0.0, "count");
    rep.set("shard.wire.gossip_frame_share", frames > 0 ? std::min(1.0, gossip_fps * ph.wall_s / frames) : 0.0, "share");
    rep.set("shard.wire.retransmits", static_cast<double>(wire1.retransmits - wire0.retransmits), "count");
    rep.set("shard.deaths", static_cast<double>(cc1.deaths - cc0.deaths), "count");
    rep.set("shard.failovers", static_cast<double>(cc1.failovers - cc0.failovers), "count");
    env.cluster.reset();
    env.pool.reset();
    probe_layers(w.edge, rep);
    summarize_trace(args, total_ops(ph), rep);
    reconcile_shard_path(args, w.edge, quiet_reference(ph).median() * 1e3, rep);
}

}  // namespace perfbench
