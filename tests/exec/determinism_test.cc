/**
 * @file
 * End-to-end determinism: the parallelized substrates must produce
 * byte-identical output on 1 thread and on 8. This is the contract
 * that makes --threads a pure performance knob (docs/parallelism.md).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "comm/channel_sim.hh"
#include "exec/thread_pool.hh"
#include "ni/synthetic_cortex.hh"
#include "signal/spike_sorter.hh"

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

TEST(DeterminismTest, SpikeSorterTemplatesAreThreadCountInvariant)
{
    auto train = [] {
        std::vector<signal::Snippet> snippets;
        Rng rng(3);
        for (int i = 0; i < 60; ++i) {
            signal::Snippet s(16);
            double amp = (i % 3) - 1.0;
            for (std::size_t t = 0; t < s.size(); ++t)
                s[t] = amp * static_cast<double>(t) +
                       0.1 * rng.gaussian();
            snippets.push_back(std::move(s));
        }
        signal::SpikeSorterConfig config;
        config.units = 3;
        signal::TemplateSpikeSorter sorter(config);
        sorter.train(snippets);
        std::vector<double> flat;
        for (std::size_t u = 0; u < 3; ++u)
            for (double v : sorter.templates()[u])
                flat.push_back(v);
        return flat;
    };
    EXPECT_EQ(withThreads(1, train), withThreads(8, train));
}

} // namespace
} // namespace mindful
