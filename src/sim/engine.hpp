#pragma once
// Deterministic process-oriented discrete-event simulation kernel.
//
// Each simulated processor runs a real C++ body on its own std::thread, but
// exactly one process executes at a time and the scheduler always resumes
// the runnable process with the smallest (virtual clock, pid). Because every
// clock-advancing action is a yield point and all model effects happen at
// times >= the acting process's clock, actions are executed in nondecreasing
// virtual-time order — shared model state (e.g. the mesh link ledger) sees a
// causally ordered, fully reproducible event stream regardless of host
// scheduling. Results are therefore bit-identical run to run.
//
// Blocking is predicate-based: a process blocks with a poll function that
// reports the wake-up time once its condition (typically "a matching message
// arrived") can be satisfied; whoever creates the condition calls notify().

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "base/mix.hpp"

namespace wavehpc::sim {

class Engine;

/// Thrown by Engine::run when every live process is blocked with no pending
/// timeout. The message names each blocked process, its virtual time, and
/// the wait description it registered (e.g. "crecv(tag=7, src=0)").
class DeadlockError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Handle passed to a process body; all methods must be called from inside
/// that body (i.e. on the process's own thread while it holds the turn).
class Proc {
public:
    [[nodiscard]] std::size_t pid() const noexcept { return pid_; }
    [[nodiscard]] const std::string& name() const;
    [[nodiscard]] double now() const;

    /// Charge `dt` seconds of virtual time and yield to the scheduler.
    void advance(double dt);

    /// Poll result: the virtual time at which the wait completes.
    using Poll = std::function<std::optional<double>()>;

    /// Block until `poll` yields a wake time (evaluated immediately, then on
    /// every notify()). On wake, the clock becomes max(clock, wake time).
    /// `waiting_on` describes the condition for deadlock reports.
    void block(Poll poll, std::string waiting_on = {});

    /// Like block(), but the wait also completes — unsatisfied — at virtual
    /// time `deadline`: the timeout is a scheduled event, so it fires in
    /// correct virtual-time order relative to every other process, and a
    /// process blocked this way is never counted as deadlocked. Returns true
    /// if the poll fired, false on timeout (clock becomes max(clock,
    /// deadline)).
    bool block_until(Poll poll, double deadline, std::string waiting_on = {});

    /// Re-evaluate the poll of a blocked process (no-op otherwise).
    void notify(std::size_t other_pid);

    [[nodiscard]] Engine& engine() const noexcept { return *engine_; }

private:
    friend class Engine;
    Proc(Engine* engine, std::size_t pid) : engine_(engine), pid_(pid) {}
    Engine* engine_;
    std::size_t pid_;
};

/// Scheduling hook consulted only when several *runnable* processes share
/// the minimal virtual clock. The scheduler's choice among exact ties is
/// the one degree of freedom the event order leaves open: any of the tied
/// processes may legally run first, so every selection explores a causally
/// valid interleaving while timeouts, clock ordering, and the
/// runnable-beats-timeout rule stay untouched. The default (no policy) is
/// lowest pid first — bit-identical to the historical scheduler.
class SchedulePolicy {
public:
    virtual ~SchedulePolicy() = default;

    /// `tied` lists the pids of the tied runnable processes in increasing
    /// pid order (always size >= 2). Return an index into `tied`. Called
    /// with the engine lock held; must not reenter the engine.
    virtual std::size_t choose(std::span<const std::size_t> tied) = 0;

    /// One-line description for failure repros (e.g. "sched_seed=42").
    [[nodiscard]] virtual std::string describe() const = 0;
};

/// Seeded schedule exploration: permutes tie-breaks with a splitmix64
/// stream. The whole simulation is serialized under the engine lock, so
/// the sequence of choose() calls — and hence the explored interleaving —
/// is a pure function of the seed: any failure replays exactly by
/// re-running with the same seed.
class SeededTieBreak final : public SchedulePolicy {
public:
    explicit SeededTieBreak(std::uint64_t seed) : seed_(seed), rng_(seed) {}
    std::size_t choose(std::span<const std::size_t> tied) override;
    [[nodiscard]] std::string describe() const override;
    [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

private:
    std::uint64_t seed_;
    base::SplitMix64 rng_;
};

class Engine {
public:
    using Body = std::function<void(Proc&)>;

    Engine() = default;
    Engine(const Engine&) = delete;
    Engine& operator=(const Engine&) = delete;

    /// Register a process before run(). Returns its pid.
    std::size_t add_process(std::string name, Body body);

    /// Install a tie-break policy (nullptr restores the lowest-pid
    /// default). Must be called before run().
    void set_schedule_policy(std::unique_ptr<SchedulePolicy> policy);

    /// The installed policy, or nullptr when running the default order.
    [[nodiscard]] const SchedulePolicy* schedule_policy() const noexcept {
        return policy_.get();
    }

    /// Execute all processes to completion. Rethrows the first process
    /// exception (in virtual-time order) and throws DeadlockError if all
    /// live processes end up blocked.
    void run();

    [[nodiscard]] std::size_t process_count() const noexcept { return procs_.size(); }
    [[nodiscard]] double clock_of(std::size_t pid) const;
    /// Largest completion time over all processes; valid after run().
    [[nodiscard]] double makespan() const noexcept { return makespan_; }

private:
    friend class Proc;

    enum class State : unsigned char { Ready, Runnable, Blocked, Done };

    struct Pcb {
        std::string name;
        Body body;
        std::thread thread;
        double clock = 0.0;
        State state = State::Ready;
        Proc::Poll poll;
        std::optional<double> timeout_at;  // block_until deadline, if any
        bool timed_out = false;            // last wait ended by timeout
        std::string waiting_on;            // wait description for diagnostics
        std::condition_variable cv;
        bool has_turn = false;
        std::exception_ptr error;
    };

    // All private methods below expect mu_ held.
    void give_turn_to_next(std::unique_lock<std::mutex>& lk);
    // Non-const: a stateful policy (seeded RNG) advances on every tie.
    [[nodiscard]] std::size_t pick_next(bool* via_timeout);
    void begin_abort();
    void yield_and_wait(std::unique_lock<std::mutex>& lk, std::size_t pid);
    void check_abort(std::size_t pid) const;

    void advance(std::size_t pid, double dt);
    bool block(std::size_t pid, Proc::Poll poll, std::optional<double> deadline,
               std::string waiting_on);
    void notify(std::size_t pid);

    void trampoline(std::size_t pid);

    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

    mutable std::mutex mu_;
    std::condition_variable done_cv_;
    std::unique_ptr<SchedulePolicy> policy_;
    std::vector<std::unique_ptr<Pcb>> procs_;
    std::size_t live_ = 0;
    bool aborting_ = false;
    bool started_ = false;
    double makespan_ = 0.0;
    std::exception_ptr first_error_;
    std::string deadlock_message_;
};

}  // namespace wavehpc::sim
