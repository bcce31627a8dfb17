#include "runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace {

using wavehpc::runtime::ThreadPool;

TEST(ThreadPool, ConstructsRequestedWorkerCount) {
    ThreadPool pool(3);
    EXPECT_EQ(pool.workers(), 3U);
}

TEST(ThreadPool, DefaultsToAtLeastOneWorker) {
    ThreadPool pool;
    EXPECT_GE(pool.workers(), 1U);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(0, hits.size(), [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
    ThreadPool pool(2);
    bool called = false;
    pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForComputesCorrectSum) {
    ThreadPool pool(4);
    std::vector<long> partial(pool.workers() * 16, 0);
    std::atomic<std::size_t> slot{0};
    std::atomic<long> total{0};
    pool.parallel_for(1, 10001, [&](std::size_t b, std::size_t e) {
        long s = 0;
        for (std::size_t i = b; i < e; ++i) s += static_cast<long>(i);
        total.fetch_add(s);
    });
    EXPECT_EQ(total.load(), 10000L * 10001L / 2);
    (void)partial;
    (void)slot;
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
    ThreadPool pool(3);
    EXPECT_THROW(pool.parallel_for(0, 100,
                                   [](std::size_t b, std::size_t) {
                                       if (b == 0) throw std::runtime_error("boom");
                                   }),
                 std::runtime_error);
    // Pool must still be usable afterwards.
    std::atomic<int> ok{0};
    pool.parallel_for(0, 10, [&](std::size_t b, std::size_t e) {
        ok.fetch_add(static_cast<int>(e - b));
    });
    EXPECT_EQ(ok.load(), 10);
}

TEST(ThreadPool, SubmitAndWaitIdle) {
    std::atomic<int> count{0};
    std::latch done(50);  // outlives the pool, so no task can touch it dead
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
        pool.submit([&] {
            count.fetch_add(1);
            done.count_down();
        });
    }
    done.wait();
    EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, SingleWorkerStillCompletesParallelFor) {
    ThreadPool pool(1);
    std::atomic<long> total{0};
    pool.parallel_for(0, 100, [&](std::size_t b, std::size_t e) {
        total.fetch_add(static_cast<long>(e - b));
    });
    EXPECT_EQ(total.load(), 100);
}

TEST(ThreadPool, ParallelForAggregatesEveryChunkException) {
    ThreadPool pool(4);
    try {
        pool.parallel_for(0, 4, [](std::size_t, std::size_t) {
            throw std::runtime_error("chunk failed");
        });
        FAIL() << "expected a throw";
    } catch (const wavehpc::runtime::ParallelGroupError& e) {
        // Every one of the 4 chunks threw; none may be dropped.
        EXPECT_EQ(e.exceptions().size(), 4U);
        EXPECT_NE(std::string(e.what()).find("chunk failed"), std::string::npos);
    } catch (const std::runtime_error&) {
        // Permitted only if scheduling let a single chunk observe the error
        // — cannot happen with 4 independent throwing chunks.
        FAIL() << "all four chunks throw; aggregate expected";
    }
    // Pool must still be usable afterwards.
    std::atomic<int> ok{0};
    pool.parallel_for(0, 10, [&](std::size_t b, std::size_t e) {
        ok.fetch_add(static_cast<int>(e - b));
    });
    EXPECT_EQ(ok.load(), 10);
}

TEST(ThreadPool, SingleChunkExceptionKeepsOriginalType) {
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallel_for(0, 1,
                                   [](std::size_t, std::size_t) {
                                       throw std::invalid_argument("inline chunk");
                                   }),
                 std::invalid_argument);
}

// The documented static split: min(n, workers()) contiguous ranges that
// tile [first, last) with sizes differing by at most one.
TEST(ThreadPool, ParallelForSplitsIntoBalancedContiguousRanges) {
    ThreadPool pool(4);
    for (std::size_t n : {2U, 4U, 7U, 103U}) {
        std::mutex mu;
        std::vector<std::pair<std::size_t, std::size_t>> ranges;
        pool.parallel_for(10, 10 + n, [&](std::size_t b, std::size_t e) {
            std::lock_guard lk(mu);
            ranges.emplace_back(b, e);
        });
        std::sort(ranges.begin(), ranges.end());
        ASSERT_EQ(ranges.size(), std::min<std::size_t>(n, pool.workers())) << "n=" << n;
        EXPECT_EQ(ranges.front().first, 10U) << "n=" << n;
        EXPECT_EQ(ranges.back().second, 10U + n) << "n=" << n;
        std::size_t lo = n;
        std::size_t hi = 0;
        for (std::size_t i = 0; i < ranges.size(); ++i) {
            const auto [b, e] = ranges[i];
            EXPECT_LT(b, e) << "n=" << n;
            if (i > 0) EXPECT_EQ(ranges[i - 1].second, b) << "n=" << n;
            lo = std::min(lo, e - b);
            hi = std::max(hi, e - b);
        }
        EXPECT_LE(hi - lo, 1U) << "n=" << n;
    }
}

TEST(ThreadPool, SingleRangeRunsInlineOnCaller) {
    ThreadPool pool(4);
    pool.reset_metrics();
    std::thread::id ran_on;
    pool.parallel_for(3, 4, [&](std::size_t b, std::size_t e) {
        EXPECT_EQ(b, 3U);
        EXPECT_EQ(e, 4U);
        ran_on = std::this_thread::get_id();
    });
    EXPECT_EQ(ran_on, std::this_thread::get_id());
    const auto m = pool.metrics();
    EXPECT_EQ(m.tasks_executed, 1U);
    EXPECT_EQ(m.groups_completed, 1U);
    EXPECT_EQ(m.queue_high_water, 0U);  // nothing was queued
}

// A failed range must not cut the join short: parallel_for rethrows only
// after every other range has finished, so no range can still be touching
// the caller's state when the exception arrives.
TEST(ThreadPool, FailedJoinWaitsForEveryOtherRange) {
    ThreadPool pool(4);
    std::vector<std::atomic<int>> finished(4);
    EXPECT_THROW(pool.parallel_for(0, 4,
                                   [&](std::size_t b, std::size_t) {
                                       if (b == 0) throw std::runtime_error("first");
                                       std::this_thread::sleep_for(
                                           std::chrono::milliseconds(20));
                                       finished[b].store(1);
                                   }),
                 std::runtime_error);
    for (std::size_t i = 1; i < finished.size(); ++i) {
        EXPECT_EQ(finished[i].load(), 1) << "range " << i << " outlived the join";
    }
}

// Regression: the seed runtime deadlocked when a worker called parallel_for
// (the blocked waiter occupied a slot no other task could fill). The new
// runtime helps: a waiting worker drains queued tasks.
TEST(ThreadPool, NestedParallelForFromWorkerCompletes) {
    for (std::size_t workers : {1U, 2U, 4U}) {
        ThreadPool pool(workers);
        std::atomic<long> total{0};
        pool.parallel_for(0, 8, [&](std::size_t ob, std::size_t oe) {
            for (std::size_t i = ob; i < oe; ++i) {
                pool.parallel_for(0, 32, [&](std::size_t b, std::size_t e) {
                    total.fetch_add(static_cast<long>(e - b));
                });
            }
        });
        EXPECT_EQ(total.load(), 8 * 32) << "workers=" << workers;
    }
}

TEST(ThreadPool, NestedParallelForPropagatesInnerException) {
    ThreadPool pool(2);
    EXPECT_THROW(
        pool.parallel_for(0, 2,
                          [&](std::size_t b, std::size_t) {
                              pool.parallel_for(0, 4, [&](std::size_t ib, std::size_t) {
                                  if (b == 0 && ib == 0) {
                                      throw std::runtime_error("inner");
                                  }
                              });
                          }),
        std::runtime_error);
}

// Regression: the seed silently enqueued tasks submitted after stopping_
// was set and dropped them when the drained workers returned. submit must
// reject instead.
TEST(ThreadPool, SubmitAfterStopIsRejected) {
    std::atomic<bool> rejected{false};
    std::atomic<bool> done{false};
    {
        ThreadPool pool(1);
        pool.submit([&] {
            // Keep probing until the destructor (running concurrently on
            // the main thread) flips stopping_ — then submit must throw.
            for (int i = 0; i < 500000 && !rejected.load(); ++i) {
                try {
                    pool.submit([] {});
                } catch (const std::logic_error&) {
                    rejected.store(true);
                }
                std::this_thread::sleep_for(std::chrono::microseconds(50));
            }
            done.store(true);
        });
        // Destructor runs now: sets stopping_, then joins the probe task.
    }
    EXPECT_TRUE(done.load());
    EXPECT_TRUE(rejected.load());
}

TEST(ThreadPool, MetricsCountTasksGroupsAndQueueDepth) {
    ThreadPool pool(4);
    pool.reset_metrics();
    pool.parallel_for(0, 100, [](std::size_t, std::size_t) {});
    const auto m = pool.metrics();
    // Every range has run by the time parallel_for returns; helper tasks
    // that found no range left count nothing, whenever they run.
    EXPECT_EQ(m.tasks_executed, 4U);  // one range per worker
    EXPECT_LE(m.helper_tasks, 4U);    // ranges the caller claimed itself
    EXPECT_EQ(m.groups_completed, 1U);
    EXPECT_EQ(m.queue_high_water, 3U);  // one helper per range but the caller's

    pool.reset_metrics();
    const auto z = pool.metrics();
    EXPECT_EQ(z.tasks_executed, 0U);
    EXPECT_EQ(z.queue_high_water, 0U);
}

TEST(ThreadPool, ParallelForCompletesWhileEveryWorkerIsBlocked) {
    // Both workers sit on gates, so no queued helper can run: the caller
    // must claim and run every range of its loop itself.
    std::promise<void> gate;
    std::shared_future<void> opened(gate.get_future());
    std::atomic<int> parked{0};
    std::latch released(2);
    ThreadPool pool(2);
    for (int w = 0; w < 2; ++w) {
        pool.submit([opened, &parked, &released] {
            parked.fetch_add(1);
            opened.wait();
            released.count_down();
        });
    }
    while (parked.load() < 2) std::this_thread::yield();
    std::atomic<std::size_t> covered{0};
    auto loop = std::async(std::launch::async, [&] {
        pool.parallel_for(0, 100, [&](std::size_t b, std::size_t e) {
            covered.fetch_add(e - b);
        });
    });
    const bool finished =
        loop.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
    gate.set_value();
    loop.get();
    EXPECT_TRUE(finished) << "parallel_for waited on blocked workers";
    EXPECT_EQ(covered.load(), 100U);
    released.wait();
}

TEST(ThreadPool, BackToBackSmallLoopsRunOnlyTheirOwnRanges) {
    // Helpers of one loop may still be queued when the next loop starts;
    // they must find their own loop exhausted and never run a range of the
    // next one (whose shape differs, so a stray range shows up as a bad
    // bound or a double hit).
    ThreadPool pool(4);
    std::atomic<int> current{-1};
    std::atomic<int> strays{0};
    for (int i = 0; i < 2000; ++i) {
        const std::size_t n = 4 + static_cast<std::size_t>(i % 7);
        std::vector<std::atomic<int>> hits(n);
        current.store(i);
        pool.parallel_for(0, n, [&, i, n](std::size_t b, std::size_t e) {
            if (current.load() != i || e > n) {
                strays.fetch_add(1);
                return;
            }
            for (std::size_t k = b; k < e; ++k) hits[k].fetch_add(1);
        });
        for (const auto& h : hits) ASSERT_EQ(h.load(), 1) << "loop " << i;
    }
    EXPECT_EQ(strays.load(), 0);
}

TEST(ThreadPool, HighPrioritySubmitOvertakesQueuedNormalWork) {
    using wavehpc::runtime::TaskPriority;
    // One worker, blocked on a gate, so everything below queues behind it
    // in a deterministic order; the High task must run before the three
    // Normal ones that were enqueued first.
    std::promise<void> gate;
    std::shared_future<void> opened(gate.get_future());
    std::vector<int> order;
    std::mutex order_mu;
    std::latch recorded(4);
    auto record = [&](int id) {
        {
            std::lock_guard lk(order_mu);
            order.push_back(id);
        }
        recorded.count_down();
    };
    ThreadPool pool(1);
    pool.submit([opened] { opened.wait(); });
    for (int id = 0; id < 3; ++id) {
        pool.submit([&record, id] { record(id); });
    }
    pool.submit([&record] { record(99); }, TaskPriority::High);
    gate.set_value();
    recorded.wait();
    ASSERT_EQ(order.size(), 4U);
    EXPECT_EQ(order[0], 99);
    EXPECT_EQ(order[1], 0);
    EXPECT_EQ(order[2], 1);
    EXPECT_EQ(order[3], 2);
}

}  // namespace
