// Stress tests for the threaded runtime, designed to run under
// ThreadSanitizer (cmake -DWAVEHPC_SANITIZE=thread, or the `tsan` preset).
//
// ManyShortParallelForsFromManyThreads reliably reproduced the seed
// runtime's completion race: parallel_for kept its done_mu/done_cv pair on
// the waiter's stack and the last worker notified after an atomic decrement
// taken outside the lock, so a spurious wakeup could destroy the pair while
// the worker was still about to lock it (use-after-scope). Thousands of
// short parallel_for calls from several caller threads make that window hit
// within a few seconds under TSan. The rebuilt runtime keeps each call's
// latch in a block its helpers co-own and must produce zero reports.

#include "runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

namespace {

using wavehpc::runtime::ThreadPool;

TEST(ThreadPoolStress, ManyShortParallelForsFromManyThreads) {
    constexpr std::size_t kCallers = 4;
    constexpr std::size_t kItersPerCaller = 2500;  // 10k parallel_for joins
    ThreadPool pool(4);
    std::atomic<long> completed{0};
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (std::size_t t = 0; t < kCallers; ++t) {
        callers.emplace_back([&] {
            for (std::size_t i = 0; i < kItersPerCaller; ++i) {
                std::atomic<int> local{0};
                pool.parallel_for(0, 8, [&](std::size_t b, std::size_t e) {
                    local.fetch_add(static_cast<int>(e - b));
                });
                if (local.load() == 8) completed.fetch_add(1);
            }
        });
    }
    for (auto& c : callers) c.join();
    EXPECT_EQ(completed.load(), static_cast<long>(kCallers * kItersPerCaller));
}

TEST(ThreadPoolStress, NestedParallelForUnderConcurrentLoad) {
    ThreadPool pool(4);
    std::atomic<long> outer_sum{0};
    // Background callers keep the queue busy while nested joins happen.
    std::atomic<bool> stop{false};
    std::thread background([&] {
        while (!stop.load()) {
            pool.parallel_for(0, 16, [](std::size_t, std::size_t) {});
        }
    });
    for (int round = 0; round < 50; ++round) {
        pool.parallel_for(0, 8, [&](std::size_t ob, std::size_t oe) {
            for (std::size_t i = ob; i < oe; ++i) {
                pool.parallel_for(0, 64, [&](std::size_t b, std::size_t e) {
                    outer_sum.fetch_add(static_cast<long>(e - b));
                });
            }
        });
    }
    stop.store(true);
    background.join();
    EXPECT_EQ(outer_sum.load(), 50L * 8L * 64L);
}

TEST(ThreadPoolStress, ConcurrentGroupSubmitsAndJoins) {
    ThreadPool pool(4);
    constexpr std::size_t kCallers = 4;
    std::atomic<long> total{0};
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (std::size_t t = 0; t < kCallers; ++t) {
        callers.emplace_back([&] {
            for (int i = 0; i < 500; ++i) {
                // Each task co-owns the latch, so the last count_down never
                // touches a latch this caller already destroyed.
                const auto done = std::make_shared<std::latch>(4);
                for (int j = 0; j < 4; ++j) {
                    pool.submit([&total, done] {
                        total.fetch_add(1);
                        done->count_down();
                    });
                }
                done->wait();
            }
        });
    }
    for (auto& c : callers) c.join();
    EXPECT_EQ(total.load(), static_cast<long>(kCallers) * 500L * 4L);
}

}  // namespace
