/**
 * @file
 * Metric cell tests: cross-thread counter exactness, histogram parity
 * with base/stats.hh's LogHistogram + RunningStats (count/min/max/
 * percentiles exact; mean approximate — the cell accumulates a plain
 * sum while RunningStats uses Welford), the runtime registry gate,
 * kind-mismatch registration, reset via the global registry's clear,
 * the snapshot surface, and CSV export stability.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/stats.hh"
#include "obs/handles.hh"
#include "obs/metrics.hh"

namespace mindful::obs {
namespace {

/** Global-registry snapshot row by name; asserts it exists. */
MetricSample
sampleNamed(const std::string &name)
{
    auto samples = MetricRegistry::global().snapshot();
    for (const MetricSample &sample : samples)
        if (sample.name == name)
            return sample;
    ADD_FAILURE() << "no sample named " << name;
    return {};
}

/** Clear the registry around each test; leave it enabled. */
class HandlesFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        MetricRegistry::global().clear();
        MetricRegistry::global().setEnabled(true);
    }

    void
    TearDown() override
    {
        MetricRegistry::global().clear();
        MetricRegistry::global().setEnabled(true);
    }
};

using HandlesTest = HandlesFixture;

TEST_F(HandlesTest, CounterSumsExactlyAcrossThreads)
{
    CounterHandle counter =
        MetricRegistry::global().counter("test.handles.cross_thread");
    constexpr unsigned kThreads = 8;
    constexpr std::uint64_t kBumps = 10'000;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([counter] {
            for (std::uint64_t i = 0; i < kBumps; ++i)
                counter.bump(2);
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(counter.total(), 2 * kThreads * kBumps);
}

TEST_F(HandlesTest, ResolvingTwiceReturnsTheSameCells)
{
    CounterHandle a = MetricRegistry::global().counter("test.handles.same");
    CounterHandle b = MetricRegistry::global().counter("test.handles.same");
    a.bump(3);
    b.bump(4);
    EXPECT_EQ(a.total(), 7u);
    EXPECT_EQ(b.total(), 7u);
}

TEST_F(HandlesTest, HistogramMatchesLogHistogramOnIdenticalSamples)
{
    const HistogramOptions options;
    HistogramHandle hot =
        MetricRegistry::global().histogram("test.handles.parity", options);
    LogHistogram reference(options.lo, options.hi, options.bins);
    RunningStats stats;
    // Spread across decades, plus values below lo (1e-3) and above
    // hi (1e9) to exercise the under/overflow buckets, plus an exact
    // bucket-edge value (1.0) for the inclusive/exclusive edge rule.
    std::vector<double> samples;
    for (int i = 0; i < 2000; ++i)
        samples.push_back(1e-4 * std::pow(10.0, (i % 15)));
    samples.push_back(1.0);
    samples.push_back(5e-4);
    samples.push_back(2e9);
    for (double v : samples) {
        hot.observe(v);
        reference.add(v);
        stats.add(v);
    }
    EXPECT_EQ(hot.count(), reference.total());
    MetricSample sample = sampleNamed("test.handles.parity");
    EXPECT_EQ(sample.type, "histogram");
    EXPECT_EQ(sample.count, reference.total());
    // Exported min/max/percentiles come from the same bucket math as
    // LogHistogram: bit-identical, not merely close.
    EXPECT_EQ(sample.min, reference.min());
    EXPECT_EQ(sample.max, reference.max());
    EXPECT_EQ(sample.p50, reference.percentile(50.0));
    EXPECT_EQ(sample.p95, reference.percentile(95.0));
    EXPECT_EQ(sample.p99, reference.percentile(99.0));
    for (double p : {1.0, 10.0, 90.0, 99.9})
        EXPECT_EQ(hot.percentile(p), reference.percentile(p));
    // Mean: plain sum vs Welford — equal to rounding, not bitwise.
    EXPECT_NEAR(sample.value, stats.mean(), 1e-9 * std::abs(stats.mean()));
}

TEST_F(HandlesTest, RegistryGateStopsHotRecords)
{
    CounterHandle counter =
        MetricRegistry::global().counter("test.handles.gated");
    HistogramHandle histogram =
        MetricRegistry::global().histogram("test.handles.gated_hist");
    MetricRegistry::global().setEnabled(false);
    counter.bump(5);
    histogram.observe(1.5);
    MetricRegistry::global().setEnabled(true);
    EXPECT_EQ(counter.total(), 0u);
    EXPECT_EQ(histogram.count(), 0u);
    counter.bump(5);
    histogram.observe(1.5);
    EXPECT_EQ(counter.total(), 5u);
    EXPECT_EQ(histogram.count(), 1u);
}

TEST_F(HandlesTest, DefaultConstructedHandlesRecordNothing)
{
    CounterHandle counter;
    HistogramHandle histogram;
    EXPECT_FALSE(counter.valid());
    EXPECT_FALSE(histogram.valid());
    counter.bump();       // must not crash
    histogram.observe(1); // must not crash
}

TEST_F(HandlesTest, KindMismatchDies)
{
    // Other tests in this binary spawn threads; fork-after-thread
    // needs the threadsafe death-test machinery.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    MetricRegistry registry;
    registry.counter("test.handles.kind");
    EXPECT_DEATH(registry.histogram("test.handles.kind"),
                 "different kind");
}

TEST_F(HandlesTest, GlobalClearZeroesHotCells)
{
    CounterHandle counter =
        MetricRegistry::global().counter("test.handles.cleared");
    counter.bump(9);
    EXPECT_EQ(counter.total(), 9u);
    MetricRegistry::global().clear();
    // The handle stays valid; only the cells were zeroed.
    EXPECT_EQ(counter.total(), 0u);
    counter.bump(1);
    EXPECT_EQ(counter.total(), 1u);
}

TEST_F(HandlesTest, SnapshotMergesHotCellsIntoGlobalRegistry)
{
    MINDFUL_METRIC_COUNT("test.handles.cold_counter", 3);
    CounterHandle hot =
        MetricRegistry::global().counter("test.handles.hot_counter");
    hot.bump(4);
    auto samples = MetricRegistry::global().snapshot();
    // One name-sorted table: by-name and handle records, same rows.
    EXPECT_TRUE(std::is_sorted(samples.begin(), samples.end(),
                               [](const auto &a, const auto &b) {
                                   return a.name < b.name;
                               }));
    MetricSample cold_sample = sampleNamed("test.handles.cold_counter");
    MetricSample hot_sample = sampleNamed("test.handles.hot_counter");
    EXPECT_EQ(cold_sample.type, "counter");
    EXPECT_EQ(hot_sample.type, "counter");
    EXPECT_EQ(hot_sample.count, 4u);
    EXPECT_EQ(hot_sample.value, 4.0);
}

TEST_F(HandlesTest, CsvExportIsStableAcrossRepeatedSnapshots)
{
    CounterHandle counter =
        MetricRegistry::global().counter("test.handles.csv");
    counter.bump(42);
    MINDFUL_METRIC_GAUGE("test.handles.csv_gauge", 0.5);
    std::ostringstream first;
    MetricRegistry::global().snapshotTable().printCsv(first);
    std::ostringstream second;
    MetricRegistry::global().snapshotTable().printCsv(second);
    EXPECT_EQ(first.str(), second.str());
    EXPECT_NE(first.str().find("test.handles.csv"), std::string::npos);
}

} // namespace
} // namespace mindful::obs
