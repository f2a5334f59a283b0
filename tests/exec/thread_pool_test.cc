/**
 * @file
 * ThreadPool unit tests: worker identity, exception propagation
 * through parallelFor, deadlock-free nested parallelism, and
 * concurrent callers on threads outside the pool.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/parallel.hh"
#include "exec/thread_pool.hh"

namespace mindful::exec {
namespace {

TEST(ThreadPoolTest, OnWorkerThreadDistinguishesCallers)
{
    EXPECT_FALSE(ThreadPool::onWorkerThread());
    ThreadPool::setGlobalThreadCount(2);
    // Each shard waits (up to a deadline, so a broken pool fails
    // rather than hangs) until both have started, so the two run at
    // once: one on the caller, one on the pool's single worker.
    const std::thread::id caller = std::this_thread::get_id();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    std::atomic<int> started{0};
    std::atomic<int> on_worker{0};
    std::atomic<int> on_caller{0};
    parallelFor(2, [&](std::size_t) {
        started.fetch_add(1);
        while (started.load() < 2 &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        if (ThreadPool::onWorkerThread())
            on_worker.fetch_add(1);
        if (std::this_thread::get_id() == caller)
            on_caller.fetch_add(1);
    });
    EXPECT_EQ(on_worker.load(), 1);
    EXPECT_EQ(on_caller.load(), 1);
    EXPECT_FALSE(ThreadPool::onWorkerThread());
    ThreadPool::setGlobalThreadCount(0);
}

TEST(ThreadPoolTest, GlobalThreadCountIsReconfigurable)
{
    unsigned before = ThreadPool::globalThreadCount();
    ThreadPool::setGlobalThreadCount(3);
    EXPECT_EQ(ThreadPool::globalThreadCount(), 3u);
    EXPECT_EQ(ThreadPool::global().threadCount(), 3u);
    ThreadPool::setGlobalThreadCount(0); // back to automatic
    EXPECT_GE(ThreadPool::globalThreadCount(), 1u);
    (void)before;
}

TEST(ParallelForTest, PropagatesExceptions)
{
    ThreadPool::setGlobalThreadCount(4);
    EXPECT_THROW(
        parallelFor(8,
                    [](std::size_t shard) {
                        if (shard >= 4)
                            throw std::runtime_error("shard failed");
                    }),
        std::runtime_error);
    ThreadPool::setGlobalThreadCount(0);
}

TEST(ParallelForTest, PropagatesLowestShardExceptionDeterministically)
{
    for (unsigned threads : {1u, 4u}) {
        ThreadPool::setGlobalThreadCount(threads);
        try {
            parallelFor(8, [](std::size_t shard) {
                if (shard == 2 || shard == 5)
                    throw std::runtime_error("shard " +
                                             std::to_string(shard));
            });
            FAIL() << "expected an exception";
        } catch (const std::runtime_error &e) {
            // All shards run to completion; the lowest failed index
            // wins regardless of scheduling.
            EXPECT_STREQ(e.what(), "shard 2");
        }
    }
    ThreadPool::setGlobalThreadCount(0);
}

TEST(ParallelForTest, NestedCallsRunInlineWithoutDeadlock)
{
    ThreadPool::setGlobalThreadCount(2);
    std::atomic<int> inner_runs{0};
    parallelFor(4, [&](std::size_t) {
        // A nested parallelFor on a pool worker must not wait on the
        // (possibly fully occupied) pool; it runs inline.
        parallelFor(4, [&](std::size_t) { inner_runs.fetch_add(1); });
    });
    EXPECT_EQ(inner_runs.load(), 16);
    ThreadPool::setGlobalThreadCount(0);
}

TEST(ParallelForTest, ConcurrentExternalCallersEachRunTheirOwnShards)
{
    // Two threads outside the pool call parallelFor at once, round
    // after round: one holds the job slot and the other runs inline,
    // or they take turns. Either way each call runs every one of its
    // shards exactly once and rethrows its own lowest failed shard.
    ThreadPool::setGlobalThreadCount(4);
    constexpr std::size_t kShards = 16;
    constexpr int kRounds = 200;
    std::atomic<int> failures{0};
    auto caller = [&](std::size_t first_failure) {
        for (int round = 0; round < kRounds; ++round) {
            std::vector<std::atomic<int>> runs(kShards);
            try {
                parallelFor(kShards, [&](std::size_t shard) {
                    runs[shard].fetch_add(1);
                    if (shard == first_failure ||
                        shard == first_failure + 3)
                        throw std::runtime_error(std::to_string(shard));
                });
                failures.fetch_add(1);
            } catch (const std::runtime_error &e) {
                if (e.what() != std::to_string(first_failure))
                    failures.fetch_add(1);
            }
            for (auto &r : runs)
                if (r.load() != 1)
                    failures.fetch_add(1);
        }
    };
    std::thread a(caller, 2);
    std::thread b(caller, 9);
    a.join();
    b.join();
    EXPECT_EQ(failures.load(), 0);
    ThreadPool::setGlobalThreadCount(0);
}

} // namespace
} // namespace mindful::exec
