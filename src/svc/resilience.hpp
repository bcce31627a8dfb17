#pragma once
// Resilience policies for the pyramid service: per-request retry with
// capped jittered exponential backoff (the reliable transport's backoff
// shape, mesh/machine.hpp), a per-backend circuit breaker, a compute
// watchdog budget, and poison-request quarantine. The policies are plain
// data + pure decision logic; the service owns the state machine wiring
// (service.cpp) so everything here unit-tests without threads.
//
// All knobs come from WAVEHPC_SVC_RETRY_* / WAVEHPC_SVC_BREAKER_* /
// WAVEHPC_SVC_WATCHDOG_MS (see from_env docs below), read under the
// base/knob.hpp policy like ServiceConfig::from_env.

#include <chrono>
#include <cstdint>
#include <stdexcept>

namespace wavehpc::svc {

/// Capped jittered exponential backoff between compute retries:
/// delay(attempt) = min(base * multiplier^(attempt-1), cap), then scaled
/// by a deterministic jitter draw in [1-jitter, 1]. attempt is 1-based
/// (the delay before the 2nd attempt is backoff_seconds(1, ...)).
struct RetryPolicy {
    std::uint32_t max_attempts = 4;  ///< total attempts, first one included
    double base_seconds = 0.010;
    double multiplier = 2.0;
    double cap_seconds = 0.500;
    double jitter = 0.5;  ///< fraction of the delay randomized away

    /// Deterministic delay before attempt `attempt + 1`; `draw` is a
    /// splitmix64-style random word (e.g. mixed from flight seq +
    /// attempt), so replays of the same schedule back off identically.
    [[nodiscard]] double backoff_seconds(std::uint32_t attempt,
                                         std::uint64_t draw) const;
};

/// Circuit-breaker tuning. The breaker trips when the EWMA failure rate
/// over compute attempts exceeds `failure_threshold` (after at least
/// `min_samples` attempts), rejects fast for `open_seconds`, then lets
/// `half_open_probes` requests through; all probes succeeding closes it,
/// any probe failing re-opens it.
struct BreakerConfig {
    double failure_threshold = 0.5;
    double ewma_alpha = 0.25;        ///< weight of the newest attempt
    std::uint32_t min_samples = 4;   ///< attempts before the EWMA is trusted
    double open_seconds = 1.0;
    std::uint32_t half_open_probes = 2;
};

/// Per-backend closed/open/half-open breaker. Externally synchronized:
/// the service calls every method under its own mutex (like Flight
/// bookkeeping), so there is no lock here and unit tests drive it
/// single-threaded with explicit time points.
class CircuitBreaker {
public:
    using Clock = std::chrono::steady_clock;

    enum class State : std::uint8_t { Closed, Open, HalfOpen };

    CircuitBreaker() = default;
    explicit CircuitBreaker(BreakerConfig cfg) : cfg_(cfg) {}

    /// Current state, advancing Open -> HalfOpen when the open window
    /// elapsed.
    [[nodiscard]] State state(Clock::time_point now);

    /// May a new request be admitted for this backend right now? In
    /// HalfOpen, each allowed request reserves one probe slot (released
    /// by the record_* call for its attempt).
    [[nodiscard]] bool allow(Clock::time_point now);

    /// Suggested client wait when allow() said no: remaining open time
    /// (>= a small floor so callers never spin).
    [[nodiscard]] double retry_after_seconds(Clock::time_point now) const;

    /// Outcome of one compute attempt. Also drives Open (threshold
    /// crossed) and Closed/re-Open (half-open probe verdicts).
    void record_success(Clock::time_point now);
    void record_failure(Clock::time_point now);

    [[nodiscard]] double failure_rate() const noexcept { return ewma_; }
    [[nodiscard]] std::uint64_t times_opened() const noexcept { return times_opened_; }

private:
    void trip(Clock::time_point now);

    BreakerConfig cfg_;
    State state_ = State::Closed;
    double ewma_ = 0.0;
    std::uint64_t samples_ = 0;
    std::uint64_t times_opened_ = 0;
    Clock::time_point opened_at_{};
    std::uint32_t probes_allowed_ = 0;   ///< half-open admissions handed out
    std::uint32_t probes_succeeded_ = 0;
};

/// The service's full resilience posture; embedded in ServiceConfig.
struct ResilienceConfig {
    RetryPolicy retry;
    BreakerConfig breaker;
    /// Watchdog budget for one compute attempt. The effective budget is
    /// min(watchdog_seconds, time left to the request deadline) taken at
    /// compute start; a compute still running past it has its waiters
    /// failed (WatchdogTimeoutError) and its concurrency slot released,
    /// so a stalled kernel never wedges the whole service. 0 disables.
    double watchdog_seconds = 30.0;

    /// WAVEHPC_SVC_RETRY_MAX / _RETRY_BASE_MS / _RETRY_CAP_MS /
    /// _RETRY_JITTER, WAVEHPC_SVC_BREAKER_THRESHOLD / _BREAKER_ALPHA /
    /// _BREAKER_MIN_SAMPLES / _BREAKER_OPEN_MS / _BREAKER_PROBES, and
    /// WAVEHPC_SVC_WATCHDOG_MS. Unset/empty keeps the default; counts are
    /// >= 1, milliseconds and the threshold >= 0, jitter 0-1, alpha
    /// 1e-3-1; anything else throws std::invalid_argument.
    [[nodiscard]] static ResilienceConfig from_env();
};

}  // namespace wavehpc::svc
