/**
 * @file
 * parallelFor / shardRange property tests: the shard decomposition
 * is a pure function of the shard count, never of the thread count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "exec/parallel.hh"
#include "exec/thread_pool.hh"

namespace mindful::exec {
namespace {

TEST(ShardRangeTest, CoversEveryItemExactlyOnce)
{
    for (std::uint64_t items : {0ull, 1ull, 15ull, 16ull, 17ull, 1000ull}) {
        std::uint64_t covered = 0;
        std::uint64_t previous_end = 0;
        for (std::size_t shard = 0; shard < kDefaultShards; ++shard) {
            auto range = shardRange(items, kDefaultShards, shard);
            EXPECT_EQ(range.begin, previous_end);
            previous_end = range.end;
            covered += range.size();
        }
        EXPECT_EQ(previous_end, items);
        EXPECT_EQ(covered, items);
    }
}

TEST(ShardRangeTest, NearEvenSplit)
{
    // 21 items over 4 shards: 6, 5, 5, 5.
    EXPECT_EQ(shardRange(21, 4, 0).size(), 6u);
    EXPECT_EQ(shardRange(21, 4, 1).size(), 5u);
    EXPECT_EQ(shardRange(21, 4, 2).size(), 5u);
    EXPECT_EQ(shardRange(21, 4, 3).size(), 5u);
}

TEST(ParallelForTest, RunsEveryShardOnce)
{
    for (unsigned threads : {1u, 2u, 8u}) {
        ThreadPool::setGlobalThreadCount(threads);
        std::vector<std::atomic<int>> runs(64);
        parallelFor(64, [&](std::size_t shard) {
            runs[shard].fetch_add(1);
        });
        for (auto &r : runs)
            EXPECT_EQ(r.load(), 1);
    }
    ThreadPool::setGlobalThreadCount(0);
}

TEST(ParallelForTest, ZeroShardsIsANoop)
{
    bool ran = false;
    parallelFor(0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

} // namespace
} // namespace mindful::exec
