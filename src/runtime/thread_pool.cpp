#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace wavehpc::runtime {

namespace {

// Identifies the pool (if any) whose worker_loop is running on this thread,
// so a nested parallel_for can help-drain the queue instead of deadlocking
// in a blocking wait.
thread_local ThreadPool* tls_worker_pool = nullptr;

// True while this thread runs a task it stole as a helping waiter
// (try_help_one), so the ranges it claims count as helper work.
thread_local bool tls_helping = false;

}  // namespace

std::string ParallelGroupError::describe(const std::vector<std::exception_ptr>& errors) {
    std::string msg = std::to_string(errors.size()) + " parallel tasks failed";
    if (!errors.empty()) {
        try {
            std::rethrow_exception(errors.front());
        } catch (const std::exception& e) {
            msg += std::string("; first: ") + e.what();
        } catch (...) {
            msg += "; first: <non-std exception>";
        }
    }
    return msg;
}

ParallelGroupError::ParallelGroupError(std::vector<std::exception_ptr> errors)
    : std::runtime_error(describe(errors)), errors_(std::move(errors)) {}

/// Everything one parallel_for call shares with its helpers: the range
/// counter, the latch over the ranges and their errors. Each helper holds
/// the block by shared_ptr, so whenever it runs — even after the call
/// returned — the block is alive; it then finds every range claimed and
/// returns without touching `part`, which lives on the caller's stack.
struct ThreadPool::ForkJoin {
    std::atomic<std::size_t> next{0};  ///< next unclaimed range
    std::size_t parts = 0;
    const std::function<void(std::size_t)>* part = nullptr;

    std::mutex mu;
    std::condition_variable cv;
    std::size_t pending = 0;                 ///< unfinished ranges; guarded by mu
    std::vector<std::exception_ptr> errors;  ///< guarded by mu

    bool finished() {
        std::lock_guard lk(mu);
        return pending == 0;
    }
};

ThreadPool::ThreadPool(std::size_t workers) {
    if (workers == 0) {
        workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    }
    threads_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
        threads_.emplace_back([this] { worker_loop(); });
    }
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard lk(mu_);
        stopping_ = true;
    }
    cv_task_.notify_all();
    for (auto& t : threads_) t.join();
}

void ThreadPool::worker_loop() {
    tls_worker_pool = this;
    for (;;) {
        Task task;
        std::shared_ptr<const std::function<void()>> observer;
        {
            std::unique_lock lk(mu_);
            if (!stopping_ && queues_empty()) {
                const auto idle_start = std::chrono::steady_clock::now();
                cv_task_.wait(lk, [this] { return stopping_ || !queues_empty(); });
                idle_ns_.fetch_add(
                    static_cast<std::uint64_t>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - idle_start)
                            .count()),
                    std::memory_order_relaxed);
            }
            if (queues_empty()) return;  // stopping and drained
            task = pop_task();
            observer = task_observer_;
        }
        if (observer) (*observer)();
        run_task(task);
    }
}

// noexcept: a throwing submitted task has no join to reach, so it
// terminates (documented) on a worker and on a helping waiter alike.
void ThreadPool::run_task(Task& task) noexcept {
    if (task.counted) {
        tasks_executed_.fetch_add(1, std::memory_order_relaxed);
        if (tls_helping) helper_tasks_.fetch_add(1, std::memory_order_relaxed);
    }
    task.fn();
}

ThreadPool::Task ThreadPool::pop_task() {
    std::deque<Task>& q = high_queue_.empty() ? queue_ : high_queue_;
    Task task = std::move(q.front());
    q.pop_front();
    return task;
}

bool ThreadPool::try_help_one() {
    Task task;
    std::shared_ptr<const std::function<void()>> observer;
    {
        std::lock_guard lk(mu_);
        if (queues_empty()) return false;
        task = pop_task();
        observer = task_observer_;
    }
    if (observer) (*observer)();
    const bool was_helping = tls_helping;
    tls_helping = true;
    run_task(task);
    tls_helping = was_helping;
    return true;
}

void ThreadPool::enqueue(std::span<Task> tasks, TaskPriority priority) {
    {
        std::lock_guard lk(mu_);
        if (stopping_) {
            throw std::logic_error(
                "ThreadPool: submit on a stopping pool (task would be dropped)");
        }
        std::deque<Task>& q = priority == TaskPriority::High ? high_queue_ : queue_;
        for (Task& t : tasks) q.push_back(std::move(t));
        queue_high_water_ = std::max<std::uint64_t>(
            queue_high_water_, queue_.size() + high_queue_.size());
    }
    if (tasks.size() == 1) {
        cv_task_.notify_one();
    } else {
        cv_task_.notify_all();
    }
}

void ThreadPool::submit(std::function<void()> task, TaskPriority priority) {
    Task t{std::move(task)};
    enqueue({&t, 1}, priority);
}

void ThreadPool::run_parts(ForkJoin& fj, bool joining) {
    for (;;) {
        const std::size_t p = fj.next.fetch_add(1);
        if (p >= fj.parts) return;  // none left: `part` may be gone already
        tasks_executed_.fetch_add(1, std::memory_order_relaxed);
        if (joining || tls_helping) {
            helper_tasks_.fetch_add(1, std::memory_order_relaxed);
        }
        std::exception_ptr error;
        try {
            (*fj.part)(p);
        } catch (...) {
            error = std::current_exception();
        }
        std::lock_guard lk(fj.mu);
        if (error) fj.errors.push_back(std::move(error));
        if (--fj.pending == 0) fj.cv.notify_all();
    }
}

void ThreadPool::fork_join(std::size_t parts,
                           const std::function<void(std::size_t)>& part) {
    if (parts <= 1) {
        // Single range (or 1-worker pool): run inline on the caller — no
        // queue round-trip, and trivially correct when nested.
        tasks_executed_.fetch_add(1, std::memory_order_relaxed);
        groups_completed_.fetch_add(1, std::memory_order_relaxed);
        part(0);
        return;
    }
    const auto fj = std::make_shared<ForkJoin>();
    fj->parts = parts;
    fj->pending = parts;  // the latch counts ranges, not helper tasks
    fj->part = &part;
    std::vector<Task> helpers;
    helpers.reserve(parts - 1);
    for (std::size_t h = 0; h + 1 < parts; ++h) {
        helpers.push_back(Task{[this, fj] { run_parts(*fj, false); }, false});
    }
    enqueue(helpers, TaskPriority::Normal);  // refused: nothing queued or claimed
    // The caller works its own loop instead of sleeping: it claims ranges
    // until none are left, then joins the ranges the helpers took. Inside a
    // worker it drains queued tasks meanwhile, so the slot keeps making
    // progress; once the queue is empty it blocks.
    run_parts(*fj, true);
    if (tls_worker_pool == this) {
        while (!fj->finished() && try_help_one()) {
        }
    }
    std::vector<std::exception_ptr> errors;
    {
        std::unique_lock lk(fj->mu);
        fj->cv.wait(lk, [&] { return fj->pending == 0; });
        errors.swap(fj->errors);
    }
    groups_completed_.fetch_add(1, std::memory_order_relaxed);
    if (errors.empty()) return;
    if (errors.size() == 1) std::rethrow_exception(errors.front());
    throw ParallelGroupError(std::move(errors));
}

void ThreadPool::parallel_for(std::size_t first, std::size_t last,
                              const std::function<void(std::size_t, std::size_t)>& fn) {
    if (first >= last) return;
    const std::size_t n = last - first;
    const std::size_t parts = std::min(n, workers());
    fork_join(parts, [&](std::size_t p) {
        fn(first + n * p / parts, first + n * (p + 1) / parts);
    });
}

PoolMetrics ThreadPool::metrics() const {
    PoolMetrics m;
    m.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
    m.helper_tasks = helper_tasks_.load(std::memory_order_relaxed);
    m.groups_completed = groups_completed_.load(std::memory_order_relaxed);
    m.idle_seconds =
        static_cast<double>(idle_ns_.load(std::memory_order_relaxed)) * 1e-9;
    {
        std::lock_guard lk(mu_);
        m.queue_high_water = queue_high_water_;
    }
    return m;
}

void ThreadPool::set_task_observer(std::function<void()> observer) {
    auto next = observer
                    ? std::make_shared<const std::function<void()>>(std::move(observer))
                    : nullptr;
    std::lock_guard lk(mu_);
    task_observer_ = std::move(next);
}

void ThreadPool::reset_metrics() {
    tasks_executed_.store(0, std::memory_order_relaxed);
    helper_tasks_.store(0, std::memory_order_relaxed);
    groups_completed_.store(0, std::memory_order_relaxed);
    idle_ns_.store(0, std::memory_order_relaxed);
    std::lock_guard lk(mu_);
    queue_high_water_ = 0;
}

}  // namespace wavehpc::runtime
