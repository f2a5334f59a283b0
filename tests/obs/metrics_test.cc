/**
 * @file
 * Metric registry tests: kinds, concurrent recording, percentile
 * accuracy against sorted-vector ground truth, the runtime gate, and
 * snapshot/export paths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/random.hh"
#include "obs/metrics.hh"

namespace mindful::obs {
namespace {

/** @p registry's snapshot row for @p name; asserts it exists. */
MetricSample
sampleNamed(const MetricRegistry &registry, const std::string &name)
{
    for (const MetricSample &sample : registry.snapshot())
        if (sample.name == name)
            return sample;
    ADD_FAILURE() << "no sample named " << name;
    return {};
}

TEST(CounterTest, StartsAtZeroAndAccumulates)
{
    MetricRegistry registry;
    CounterHandle c = registry.counter("c");
    EXPECT_EQ(c.total(), 0u);
    c.bump();
    c.bump(41);
    EXPECT_EQ(c.total(), 42u);
}

TEST(CounterTest, ConcurrentAddsAreLossless)
{
    MetricRegistry registry;
    CounterHandle c = registry.counter("c");
    constexpr int kThreads = 8;
    constexpr int kAdds = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([c] {
            for (int i = 0; i < kAdds; ++i)
                c.bump();
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(c.total(), static_cast<std::uint64_t>(kThreads * kAdds));
}

TEST(MetricRegistryTest, EnabledGateDefaultsOn)
{
    MetricRegistry registry;
    EXPECT_TRUE(registry.enabled());
    registry.setEnabled(false);
    EXPECT_FALSE(registry.enabled());
    registry.setEnabled(true);
    EXPECT_TRUE(registry.enabled());
}

TEST(MetricRegistryTest, MacrosRecordNothingWhileDisabled)
{
    auto &registry = MetricRegistry::global();
    registry.clear();
    registry.setEnabled(false);
    MINDFUL_METRIC_COUNT("test.gate.counter", 5);
    MINDFUL_METRIC_GAUGE("test.gate.gauge", 1.0);
    MINDFUL_METRIC_RECORD("test.gate.histogram", 2.0);
    // Disabled recording must not even *create* the metrics — sites
    // are expected to skip name formatting behind enabled(), and the
    // macros must not leave empty entries behind.
    EXPECT_FALSE(registry.contains("test.gate.counter"));
    EXPECT_FALSE(registry.contains("test.gate.gauge"));
    EXPECT_FALSE(registry.contains("test.gate.histogram"));

    registry.setEnabled(true);
    MINDFUL_METRIC_COUNT("test.gate.counter", 5);
    EXPECT_TRUE(registry.contains("test.gate.counter"));
    EXPECT_EQ(registry.counter("test.gate.counter").total(), 5u);
    registry.clear();
}

TEST(GaugeTest, TracksLastWriteAndSetFlag)
{
    Gauge g;
    EXPECT_FALSE(g.isSet());
    g.set(3.5);
    g.set(-1.25);
    EXPECT_TRUE(g.isSet());
    EXPECT_DOUBLE_EQ(g.value(), -1.25);
}

TEST(HistogramHandleTest, CountMeanExtremaExact)
{
    MetricRegistry registry;
    HistogramHandle h = registry.histogram("h");
    for (double v : {1.0, 10.0, 100.0})
        h.observe(v);
    EXPECT_EQ(h.count(), 3u);
    const MetricSample sample = sampleNamed(registry, "h");
    EXPECT_EQ(sample.count, 3u);
    EXPECT_DOUBLE_EQ(sample.value, 37.0);
    EXPECT_DOUBLE_EQ(sample.min, 1.0);
    EXPECT_DOUBLE_EQ(sample.max, 100.0);
    EXPECT_DOUBLE_EQ(h.sum(), 111.0);
}

TEST(HistogramHandleTest, PercentileTracksSortedVectorGroundTruth)
{
    // Log-uniform samples spanning the bucket range; the histogram's
    // nearest-rank estimate must match the exact sorted-vector answer
    // to within one bucket's relative width.
    HistogramOptions options;
    options.lo = 1e-3;
    options.hi = 1e9;
    options.bins = 120;
    // Bucket edge ratio = (hi/lo)^(1/bins) = 10^(12/120) = 10^0.1.
    const double ratio = std::pow(10.0, 0.1);

    Rng rng(123);
    MetricRegistry registry;
    HistogramHandle h = registry.histogram("h", options);
    std::vector<double> values;
    for (int i = 0; i < 20000; ++i) {
        double v = std::pow(10.0, rng.uniform(-2.0, 6.0));
        values.push_back(v);
        h.observe(v);
    }
    std::sort(values.begin(), values.end());

    for (double p : {1.0, 10.0, 50.0, 90.0, 95.0, 99.0, 99.9}) {
        auto rank = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(values.size())));
        double exact = values[std::max<std::size_t>(rank, 1) - 1];
        double estimate = h.percentile(p);
        EXPECT_GT(estimate, exact / ratio)
            << "p" << p << " underestimates";
        EXPECT_LT(estimate, exact * ratio)
            << "p" << p << " overestimates";
    }
}

TEST(MetricRegistryTest, LookupCreatesOnceAndIsStable)
{
    MetricRegistry registry;
    CounterHandle a = registry.counter("x.count");
    CounterHandle b = registry.counter("x.count");
    a.bump(2);
    EXPECT_EQ(b.total(), 2u); // one cell behind both handles
    EXPECT_EQ(registry.size(), 1u);
    EXPECT_TRUE(registry.contains("x.count"));
    EXPECT_FALSE(registry.contains("x.other"));
}

TEST(MetricRegistryDeathTest, KindMismatchPanics)
{
    MetricRegistry registry;
    registry.counter("dual.use");
    EXPECT_DEATH(registry.gauge("dual.use"), "different kind");
}

TEST(MetricRegistryTest, ParallelWorkerReduction)
{
    // Workers share one registry: each resolves the same names and
    // records through its own handles; the cells reduce exactly.
    constexpr int kWorkers = 4;
    constexpr int kEvents = 2500;
    MetricRegistry total;
    std::vector<std::thread> threads;
    for (int w = 0; w < kWorkers; ++w) {
        threads.emplace_back([&total, w] {
            CounterHandle events = total.counter("worker.events");
            HistogramHandle lat = total.histogram("worker.latency_us");
            for (int i = 0; i < kEvents; ++i) {
                events.bump();
                lat.observe(1.0 + w);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    EXPECT_EQ(total.counter("worker.events").total(),
              static_cast<std::uint64_t>(kWorkers * kEvents));
    const MetricSample latency = sampleNamed(total, "worker.latency_us");
    EXPECT_EQ(latency.count, static_cast<std::size_t>(kWorkers * kEvents));
    EXPECT_DOUBLE_EQ(latency.min, 1.0);
    EXPECT_DOUBLE_EQ(latency.max, static_cast<double>(kWorkers));
}

TEST(MetricRegistryTest, SnapshotIsNameSortedAndTyped)
{
    MetricRegistry registry;
    registry.counter("b.count").bump(5);
    registry.gauge("a.gauge").set(1.0);
    registry.histogram("c.hist").observe(2.0);

    auto samples = registry.snapshot();
    ASSERT_EQ(samples.size(), 3u);
    EXPECT_EQ(samples[0].name, "a.gauge");
    EXPECT_EQ(samples[0].type, "gauge");
    EXPECT_EQ(samples[1].name, "b.count");
    EXPECT_EQ(samples[1].type, "counter");
    EXPECT_DOUBLE_EQ(samples[1].value, 5.0);
    EXPECT_EQ(samples[2].name, "c.hist");
    EXPECT_EQ(samples[2].type, "histogram");
    EXPECT_EQ(samples[2].count, 1u);
}

TEST(MetricRegistryTest, TableExportHasHeaderAndOneRowPerMetric)
{
    MetricRegistry registry;
    registry.counter("x").bump(1);
    registry.counter("y").bump(2);
    Table table = registry.snapshotTable();
    EXPECT_EQ(table.columns(), 9u);
    EXPECT_EQ(table.rows(), 2u);
}

TEST(MetricRegistryTest, ClearEmptiesTheRegistry)
{
    MetricRegistry registry;
    registry.counter("x").bump(1);
    registry.clear();
    EXPECT_EQ(registry.size(), 0u);
    EXPECT_FALSE(registry.contains("x"));
}

TEST(MetricRegistryTest, GlobalIsASingleton)
{
    EXPECT_EQ(&MetricRegistry::global(), &MetricRegistry::global());
}

} // namespace
} // namespace mindful::obs
