/**
 * @file
 * End-to-end determinism: the parallelized substrates must produce
 * byte-identical output on 1 thread and on 8. This is the contract
 * that makes --threads a pure performance knob (docs/parallelism.md).
 */

#include <gtest/gtest.h>

#include <vector>

#include "comm/channel_sim.hh"
#include "exec/thread_pool.hh"
#include "ni/synthetic_cortex.hh"

namespace mindful {
namespace {

/** Run @p produce under an N-thread global pool, restore auto after. */
template <typename Fn>
auto
withThreads(unsigned threads, Fn &&produce)
{
    exec::ThreadPool::setGlobalThreadCount(threads);
    auto result = produce();
    exec::ThreadPool::setGlobalThreadCount(0);
    return result;
}

TEST(DeterminismTest, QamBerIsThreadCountInvariant)
{
    auto measure = [] {
        comm::AwgnChannelSimulator sim(4, 99);
        std::vector<std::uint64_t> errors;
        // Several calls so per-call stream blocks are exercised too.
        for (double ebn0 : {2.0, 4.0, 8.0})
            errors.push_back(sim.measureBer(ebn0, 20000).bitErrors);
        return errors;
    };
    EXPECT_EQ(withThreads(1, measure), withThreads(8, measure));
}

TEST(DeterminismTest, OokBerIsThreadCountInvariant)
{
    auto measure = [] {
        comm::OokChannelSimulator sim(7);
        std::vector<std::uint64_t> errors;
        for (double ebn0 : {2.0, 4.0, 8.0})
            errors.push_back(sim.measureBer(ebn0, 20000).bitErrors);
        return errors;
    };
    EXPECT_EQ(withThreads(1, measure), withThreads(8, measure));
}

TEST(DeterminismTest, SyntheticCortexIsThreadCountInvariant)
{
    auto record = [] {
        ni::SyntheticCortexConfig config;
        config.channels = 24;
        ni::SyntheticCortex cortex(config);
        auto rec = cortex.generate(400);
        // Two calls: per-call fork blocks must not collide.
        auto rec2 = cortex.generate(400);
        rec.samples.insert(rec.samples.end(), rec2.samples.begin(),
                           rec2.samples.end());
        return rec.samples;
    };
    EXPECT_EQ(withThreads(1, record), withThreads(8, record));
}

} // namespace
} // namespace mindful
