#pragma once
// Host shared-memory parallel runtime: a fixed-size worker pool with a
// blocking parallel_for. This is the "modern HPC node" backend for the
// wavelet kernels — the simulators model the 1990s machines, this runs the
// same decomposition for real on the host.
//
// Each parallel_for owns one fork-join block (range counter, completion
// latch, error list) that its queued helpers share by shared_ptr, so no
// helper can outlive the state it touches. Waiting from inside a worker is
// supported: the waiter helps by draining queued tasks instead of blocking
// a slot, so nested parallel_for calls cannot deadlock. Every failed
// range's exception is collected; the join rethrows the single failure or a
// ParallelGroupError aggregating all of them.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace wavehpc::runtime {

/// Thrown by a parallel_for join when more than one range failed. A single
/// failure is rethrown as the original exception; multiple failures are
/// aggregated here so none is silently dropped.
class ParallelGroupError : public std::runtime_error {
public:
    explicit ParallelGroupError(std::vector<std::exception_ptr> errors);

    [[nodiscard]] const std::vector<std::exception_ptr>& exceptions() const noexcept {
        return errors_;
    }

private:
    static std::string describe(const std::vector<std::exception_ptr>& errors);
    std::vector<std::exception_ptr> errors_;
};

/// Counters the pool keeps about its own overhead, for the Appendix-B-style
/// "performance budget" reporting in bench output (see perf/pool_stats.hpp).
/// Snapshot with ThreadPool::metrics(); subtract two snapshots to meter a
/// region.
struct PoolMetrics {
    /// parallel_for ranges run plus submitted tasks run (a parallel_for
    /// helper task counts only through the ranges it claims).
    std::uint64_t tasks_executed = 0;
    /// Subset run by a joining thread: ranges the caller of parallel_for
    /// claimed itself, and ranges or tasks a helping waiter ran.
    std::uint64_t helper_tasks = 0;
    std::uint64_t groups_completed = 0;  ///< parallel_for joins
    std::uint64_t queue_high_water = 0;  ///< max tasks ever queued at once
    double idle_seconds = 0.0;           ///< total worker time blocked for work
};

/// Scheduling class for submitted tasks. The pool keeps one queue per
/// priority and always pops High before Normal; within a priority tasks
/// stay FIFO. parallel_for chunks are Normal, so a High submit overtakes
/// queued data-parallel work but never preempts a running task. Added for
/// the pyramid service (src/svc), whose interactive requests must not sit
/// behind a backlog of batch work.
enum class TaskPriority : std::uint8_t { Normal = 0, High = 1 };

class ThreadPool {
public:
    /// Spawns `workers` threads (defaults to hardware_concurrency, min 1).
    explicit ThreadPool(std::size_t workers = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    [[nodiscard]] std::size_t workers() const noexcept { return threads_.size(); }

    /// Run fn(begin, end) over [first, last) split into min(n, workers())
    /// roughly equal static ranges (like an OpenMP static for). The caller
    /// queues one helper task per range but one, then claims ranges itself
    /// until none are left, so it works instead of sleeping and a loop
    /// finishes even while every worker is busy. Blocks until every range
    /// finished; rethrows the single exception, or ParallelGroupError when
    /// several ranges threw. A single range runs inline on the caller. Safe
    /// to call from inside a worker (the nested wait helps drain the queue)
    /// and from many caller threads concurrently.
    void parallel_for(std::size_t first, std::size_t last,
                      const std::function<void(std::size_t, std::size_t)>& fn);

    /// Enqueue a fire-and-forget task; callers that need its completion
    /// signal it themselves (a promise, a latch). The task must not throw:
    /// there is no join to deliver the exception to, so it terminates.
    /// Throws std::logic_error if the pool is already stopping: the seed
    /// runtime silently enqueued such tasks and dropped them on drain.
    void submit(std::function<void()> task,
                TaskPriority priority = TaskPriority::Normal);

    /// Snapshot of the overhead counters (cheap; atomics + one lock).
    [[nodiscard]] PoolMetrics metrics() const;

    /// Zero all overhead counters (e.g. between bench phases).
    void reset_metrics();

    /// Install (empty function = clear) an observer invoked right before
    /// every *queued* task executes, on the executing thread, outside the
    /// pool lock. This is the fault-injection seam the chaos layer uses to
    /// stall a seeded fraction of dispatches (svc::ChaosEngine); it must
    /// be cheap and must not throw. Ranges the caller of parallel_for runs
    /// itself bypass the queue and are not observed (queued helper tasks
    /// are, before they claim a range). Thread-safe to swap
    /// while workers run; tasks already popped keep the observer they saw.
    void set_task_observer(std::function<void()> observer);

private:
    struct Task {
        std::function<void()> fn;
        bool counted = true;  ///< false for parallel_for helpers
    };

    /// Per-call state of one parallel_for; defined in thread_pool.cpp.
    struct ForkJoin;

    /// The parallel_for core: run part(p) for every p in [0, parts), on the
    /// caller and on parts-1 queued helpers, then join.
    void fork_join(std::size_t parts, const std::function<void(std::size_t)>& part);
    /// Claim and run ranges of `fj` until none are left. `joining` marks the
    /// calling thread of parallel_for (its ranges count as helper work).
    void run_parts(ForkJoin& fj, bool joining);

    void worker_loop();
    void run_task(Task& task) noexcept;
    bool try_help_one();  ///< steal one queued task; false if queues empty
    /// Queue every task under ONE lock acquisition and one notify — a
    /// W-range sweep would otherwise pay W lock/notify round-trips per
    /// level. All-or-nothing: throws (pool stopping) with no task enqueued.
    /// The tasks are moved from.
    void enqueue(std::span<Task> tasks, TaskPriority priority);
    bool queues_empty() const { return queue_.empty() && high_queue_.empty(); }
    Task pop_task();  ///< callers must hold mu_ and ensure !queues_empty()

    std::vector<std::thread> threads_;
    // Swapped atomically under mu_; executing threads hold a snapshot so a
    // concurrent set_task_observer never races a running observer.
    std::shared_ptr<const std::function<void()>> task_observer_;
    std::deque<Task> queue_;       // TaskPriority::Normal (incl. parallel_for)
    std::deque<Task> high_queue_;  // TaskPriority::High, always popped first
    mutable std::mutex mu_;
    std::condition_variable cv_task_;
    bool stopping_ = false;  // guarded by mu_

    std::atomic<std::uint64_t> tasks_executed_{0};
    std::atomic<std::uint64_t> helper_tasks_{0};
    std::atomic<std::uint64_t> groups_completed_{0};
    std::atomic<std::uint64_t> idle_ns_{0};
    std::uint64_t queue_high_water_ = 0;  // guarded by mu_
};

}  // namespace wavehpc::runtime
