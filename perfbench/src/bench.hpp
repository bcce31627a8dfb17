#pragma once
// Shared pieces of the repository benchmark: the seeded input stream, the
// sample statistics, the in-memory span recorder, and the report every
// workload fills. Everything here is the benchmark's own code; the program
// under test is only ever called through its public headers.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/dwt.hpp"
#include "core/image.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// SplitMix64: the benchmark's own input stream, so a change to the
/// program's generators can never shift the benchmark's inputs.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : s_(seed) {}
    std::uint64_t next() {
        std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }
    double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
    std::uint64_t below(std::uint64_t n) { return next() % n; }

private:
    std::uint64_t s_;
};

/// Seed for sub-stream `k` of the run seed.
[[nodiscard]] inline std::uint64_t derive(std::uint64_t seed, std::uint64_t k) {
    Rng r(seed ^ (0xA0761D6478BD642FULL * (k + 1)));
    return r.next();
}

/// The paper's Table 1 configurations.
struct MixConfig {
    int taps;
    int levels;
    const char* key;  ///< metric suffix
};
inline constexpr MixConfig kTable1[] = {{8, 1, "f8l1"}, {4, 2, "f4l2"}, {2, 4, "f2l4"}};
inline constexpr std::size_t kMixCount = 3;

/// Sample set with the order statistics the report needs.
class Samples {
public:
    void add(double v) { v_.push_back(v); }
    void append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
    [[nodiscard]] std::size_t size() const { return v_.size(); }
    [[nodiscard]] bool empty() const { return v_.empty(); }
    /// Linear-interpolated quantile, q in [0, 1]; 0 for an empty set.
    [[nodiscard]] double quantile(double q) const {
        if (v_.empty()) return 0.0;
        std::vector<double> s = v_;
        std::sort(s.begin(), s.end());
        const double pos = q * static_cast<double>(s.size() - 1);
        const auto lo = static_cast<std::size_t>(pos);
        const std::size_t hi = std::min(lo + 1, s.size() - 1);
        const double frac = pos - static_cast<double>(lo);
        // Failed requests enter as +inf; never form inf * 0.
        if (frac == 0.0 || s[hi] == s[lo]) return s[lo];
        return s[lo] + (s[hi] - s[lo]) * frac;
    }
    [[nodiscard]] double median() const { return quantile(0.5); }
    [[nodiscard]] double min() const { return quantile(0.0); }
    /// Samples [b, e) in the order they were added.
    [[nodiscard]] Samples slice(std::size_t b, std::size_t e) const {
        Samples out;
        out.v_.assign(v_.begin() + static_cast<std::ptrdiff_t>(b), v_.begin() + static_cast<std::ptrdiff_t>(e));
        return out;
    }
    [[nodiscard]] double sum() const {
        double t = 0.0;
        for (double x : v_) t += x;
        return t;
    }
    [[nodiscard]] double mean() const { return v_.empty() ? 0.0 : sum() / static_cast<double>(v_.size()); }

private:
    std::vector<double> v_;
};

/// Quantile `q` of each of up to six consecutive stretches of `s` (in the
/// order added, so in time) of at least 200 samples each, and the median of
/// those: a neighbour's burst on a shared host that covers less than half
/// the run cannot move it, where it moves the tail of the whole run
/// several-fold. This is how latency_p95_ms is taken.
[[nodiscard]] inline double blocked_quantile(const Samples& s, double q) {
    const std::size_t n = s.size();
    const std::size_t blocks = std::max<std::size_t>(1, std::min<std::size_t>(6, n / 200));
    Samples per_block;
    for (std::size_t b = 0; b < blocks; ++b) {
        per_block.add(s.slice(n * b / blocks, n * (b + 1) / blocks).quantile(q));
    }
    return per_block.median();
}

/// The highest percentile with at least ten samples beyond it, capped at
/// p99 — the tail the report can honestly state for n samples.
[[nodiscard]] inline double tail_quantile(std::size_t n) {
    if (n < 20) return 0.5;
    return std::min(0.99, 1.0 - 10.0 / static_cast<double>(n));
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded around calls into the program's layers.
// ---------------------------------------------------------------------------

struct Span {
    std::uint32_t name = 0;    ///< index into Tracer::names()
    std::uint32_t id = 0;      ///< 1-based span id, 0 = none
    std::uint32_t parent = 0;  ///< enclosing span on the same thread, 0 = root
    std::uint64_t request = 0; ///< shared by every span of one request
    std::int64_t t0_ns = 0;
    std::int64_t t1_ns = 0;
};

/// Process-wide span store. Disabled (every call a no-op) unless the run
/// is traced, so the untraced run pays one relaxed load per span site.
class Tracer {
public:
    static Tracer& get() {
        static Tracer t;
        return t;
    }
    void enable(bool on) {
        if (on) {
            std::lock_guard lk(mu_);
            spans_.reserve(std::size_t{1} << 20);  // no reallocation stalls mid-run
        }
        on_.store(on, std::memory_order_relaxed);
    }
    [[nodiscard]] bool enabled() const { return on_.load(std::memory_order_relaxed); }

    [[nodiscard]] std::uint32_t intern(const std::string& name) {
        std::lock_guard lk(mu_);
        const auto it = ids_.find(name);
        if (it != ids_.end()) return it->second;
        const auto id = static_cast<std::uint32_t>(names_.size());
        names_.push_back(name);
        ids_.emplace(name, id);
        return id;
    }
    [[nodiscard]] std::uint32_t next_id() { return next_id_.fetch_add(1) + 1; }
    void record(const Span& s) {
        std::lock_guard lk(mu_);
        spans_.push_back(s);
    }
    [[nodiscard]] std::vector<Span> take() {
        std::lock_guard lk(mu_);
        return std::move(spans_);
    }
    [[nodiscard]] std::vector<std::string> names() const {
        std::lock_guard lk(mu_);
        return names_;
    }
    [[nodiscard]] static std::int64_t now_ns() {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now().time_since_epoch())
            .count();
    }
    [[nodiscard]] static std::int64_t to_ns(Clock::time_point t) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
            .count();
    }

private:
    std::atomic<bool> on_{false};
    std::atomic<std::uint32_t> next_id_{0};
    mutable std::mutex mu_;
    std::vector<std::string> names_;
    std::map<std::string, std::uint32_t> ids_;
    std::vector<Span> spans_;
};

/// RAII span. Names are "<layer>.<call>"; the layer is the text before the
/// first dot. Nested ScopedSpans on one thread record their parent.
class ScopedSpan {
public:
    ScopedSpan(std::uint32_t name, std::uint64_t request = 0) {
        Tracer& t = Tracer::get();
        if (!t.enabled()) return;
        active_ = true;
        span_.name = name;
        span_.id = t.next_id();
        span_.parent = current();
        span_.request = request;
        current() = span_.id;
        span_.t0_ns = Tracer::now_ns();
    }
    ~ScopedSpan() {
        if (!active_) return;
        span_.t1_ns = Tracer::now_ns();
        current() = span_.parent;
        Tracer::get().record(span_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    static std::uint32_t& current() {
        thread_local std::uint32_t cur = 0;
        return cur;
    }
    Span span_;
    bool active_ = false;
};

/// A span whose interval was measured elsewhere (a request's due time to
/// its completion, observed on two threads).
inline void record_interval(std::uint32_t name, std::uint64_t request, Clock::time_point t0,
                            Clock::time_point t1) {
    Tracer& t = Tracer::get();
    if (!t.enabled()) return;
    Span s;
    s.name = name;
    s.id = t.next_id();
    s.request = request;
    s.t0_ns = Tracer::to_ns(t0);
    s.t1_ns = Tracer::to_ns(t1);
    t.record(s);
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

struct Metric {
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;  ///< samples behind the value (0 = computed)
};

struct Report {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> check_failures;  ///< "<check>: <detail>"
    std::map<std::string, Metric> metrics;
    std::map<std::string, std::string> config;

    void set(const std::string& name, double value, const std::string& unit,
             std::size_t samples = 0) {
        metrics[name] = Metric{value, unit, samples};
    }
    void fail_check(const std::string& what) {
        correct = false;
        check_failures.push_back(what);
    }
};

struct RunArgs {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir;  ///< where the traced run writes its spans
};

/// Peak resident set (VmHWM) of this process, MiB.
[[nodiscard]] double peak_rss_mib();
/// Number of online processors.
[[nodiscard]] std::size_t nproc();

/// This VM's CPU time in clock ticks, summed over its CPUs (/proc/stat).
/// `steal` is time the hypervisor ran something else while a vCPU was
/// ready to run; both read 0 where the kernel reports nothing.
struct CpuTicks {
    std::uint64_t steal = 0, total = 0;
};
[[nodiscard]] CpuTicks cpu_ticks();
[[nodiscard]] inline double steal_share(const CpuTicks& a, const CpuTicks& b) {
    return b.total > a.total ? static_cast<double>(b.steal - a.steal) /
                                   static_cast<double>(b.total - a.total)
                             : 0.0;
}

/// Steal share up to which a stretch of a run counts as quiet, and the
/// length of the stretches it is read over.
inline constexpr double kQuietSteal = 0.01;
inline constexpr double kStretchS = 0.1;

/// Which stretches of a run to measure, given each one's steal share: the
/// quiet ones, or, when those are under a sixteenth of all, the sixteenth
/// with the least steal. A parallel call waits for its slowest worker, so a
/// stretch in which the host takes a vCPU away times the host's scheduler
/// rather than the program.
[[nodiscard]] std::vector<bool> quiet_stretches(const std::vector<double>& steal);

/// The quiet stretches of a run in time: stretch k spans
/// [ends[k], ends[k+1]).
struct QuietTimeline {
    std::vector<Clock::time_point> ends;
    std::vector<bool> quiet;
    [[nodiscard]] bool quiet_at(Clock::time_point t) const;
};

/// Reads the steal share every kStretchS seconds, on a thread of its own,
/// from construction until finish().
class StealSampler {
public:
    StealSampler();
    ~StealSampler();
    StealSampler(const StealSampler&) = delete;
    StealSampler& operator=(const StealSampler&) = delete;
    [[nodiscard]] QuietTimeline finish();

private:
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::vector<Clock::time_point> ends_;
    std::vector<double> steal_;
    std::thread thread_;
};

/// Per-image bit identity.
[[nodiscard]] bool pyramids_equal(const wavehpc::core::Pyramid& a,
                                  const wavehpc::core::Pyramid& b);

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupReps = 5;

/// Set up `reps` times, timing only `make()`; keeps the last result in
/// `out` and returns the median seconds. The previous set-up is destroyed
/// (members in reverse order) before the next one starts, outside the
/// timed interval.
template <typename T, typename Fn>
double timed_setup(int reps, std::optional<T>& out, Fn&& make) {
    Samples s;
    for (int i = 0; i < reps; ++i) {
        out.reset();
        const auto t0 = Clock::now();
        T fresh = make();
        s.add(seconds_between(t0, Clock::now()));
        out.emplace(std::move(fresh));
    }
    return s.median();
}

/// Median of `reps` calls of `fn`, seconds.
template <typename Fn>
double median_seconds(int reps, Fn&& fn) {
    Samples s;
    for (int i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        fn();
        s.add(seconds_between(t0, Clock::now()));
    }
    return s.median();
}

// Workloads (one translation unit each) and the layer probes.
void run_decompose(const RunArgs& args, Report& rep);
void run_stream(const RunArgs& args, Report& rep);
void run_service_hot(const RunArgs& args, Report& rep);
void run_shard_cold(const RunArgs& args, Report& rep);

/// Per-layer probes by direct calls (traced runs only): core kernels and
/// the memcpy roofline, wavelet, and at the workload's scene edge `edge`
/// the svc digest/CRC, shard wire codec, transport round trip and mesh CRC.
void probe_layers(std::size_t edge, Report& rep);

/// Replay one shard_cold request through the public wire, transport and
/// service calls, each spanned, and report the stage sum against the
/// workload's end-to-end p50 at its lowest step (`p50_ms`).
void reconcile_shard_path(const RunArgs& args, std::size_t edge, double p50_ms, Report& rep);

/// Fold recorded spans into per-layer self time (ms per operation) and
/// write the raw spans to `args.out_dir`.
void summarize_trace(const RunArgs& args, std::uint64_t ops, Report& rep);

}  // namespace perfbench
