/**
 * @file
 * Streaming statistics tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "base/random.hh"
#include "base/stats.hh"

namespace mindful {
namespace {

TEST(RunningStatsTest, EmptyAccumulator)
{
    RunningStats stats;
    EXPECT_EQ(stats.count(), 0u);
    EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
    EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(RunningStatsTest, VarianceEdgeCases)
{
    RunningStats stats;
    // n = 0: no data, both variances defined as 0.
    EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
    EXPECT_DOUBLE_EQ(stats.sampleVariance(), 0.0);

    // n = 1: a single sample has no spread; sampleVariance must not
    // divide by n - 1 = 0.
    stats.add(42.0);
    EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
    EXPECT_DOUBLE_EQ(stats.sampleVariance(), 0.0);
    EXPECT_DOUBLE_EQ(stats.stddev(), 0.0);

    // n = 2: both become meaningful.
    stats.add(44.0);
    EXPECT_DOUBLE_EQ(stats.variance(), 1.0);
    EXPECT_DOUBLE_EQ(stats.sampleVariance(), 2.0);
}

TEST(RunningStatsTest, VarianceNeverNegative)
{
    // Identical large-magnitude samples: cancellation can push the
    // internal sum of squares a hair below zero; the accessors clamp.
    RunningStats stats;
    for (int i = 0; i < 1000; ++i)
        stats.add(1e15 + 0.1);
    EXPECT_GE(stats.variance(), 0.0);
    EXPECT_GE(stats.sampleVariance(), 0.0);
    EXPECT_FALSE(std::isnan(stats.stddev()));
}

TEST(RunningStatsTest, KnownSeries)
{
    RunningStats stats;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        stats.add(x);
    EXPECT_EQ(stats.count(), 8u);
    EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
    EXPECT_DOUBLE_EQ(stats.variance(), 4.0);
    EXPECT_DOUBLE_EQ(stats.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(stats.min(), 2.0);
    EXPECT_DOUBLE_EQ(stats.max(), 9.0);
    EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(RunningStatsTest, SampleVarianceUsesBesselCorrection)
{
    RunningStats stats;
    for (double x : {1.0, 2.0, 3.0})
        stats.add(x);
    EXPECT_DOUBLE_EQ(stats.variance(), 2.0 / 3.0);
    EXPECT_DOUBLE_EQ(stats.sampleVariance(), 1.0);
}

TEST(RunningStatsTest, MergeMatchesSequential)
{
    Rng rng(42);
    RunningStats all, left, right;
    for (int i = 0; i < 1000; ++i) {
        double x = rng.gaussian(3.0, 2.0);
        all.add(x);
        (i % 2 ? left : right).add(x);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), all.count());
    EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
    EXPECT_NEAR(left.variance(), all.variance(), 1e-10);
    EXPECT_DOUBLE_EQ(left.min(), all.min());
    EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmptySides)
{
    RunningStats a, b;
    a.add(1.0);
    a.add(3.0);
    a.merge(b); // empty rhs: no-op
    EXPECT_EQ(a.count(), 2u);
    b.merge(a); // empty lhs: copies
    EXPECT_EQ(b.count(), 2u);
    EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(RunningStatsTest, GaussianStreamConverges)
{
    Rng rng(7);
    RunningStats stats;
    for (int i = 0; i < 200000; ++i)
        stats.add(rng.gaussian(10.0, 3.0));
    EXPECT_NEAR(stats.mean(), 10.0, 0.05);
    EXPECT_NEAR(stats.stddev(), 3.0, 0.05);
}

TEST(LogHistogramTest, BucketsGrowGeometrically)
{
    LogHistogram h(1.0, 1000.0, 3); // edges 1, 10, 100, 1000
    EXPECT_NEAR(h.binLowerEdge(0), 1.0, 1e-12);
    EXPECT_NEAR(h.binUpperEdge(0), 10.0, 1e-9);
    EXPECT_NEAR(h.binLowerEdge(2), 100.0, 1e-9);
    EXPECT_NEAR(h.binUpperEdge(2), 1000.0, 1e-9);

    h.add(1.0);   // bin 0 (left edge inclusive)
    h.add(5.0);   // bin 0
    h.add(50.0);  // bin 1
    h.add(500.0); // bin 2
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(1), 1u);
    EXPECT_EQ(h.binCount(2), 1u);
    EXPECT_EQ(h.total(), 4u);
}

TEST(LogHistogramTest, UnderflowAndOverflow)
{
    LogHistogram h(1.0, 100.0, 2);
    h.add(0.5);    // below lo
    h.add(0.0);    // zero has no log bucket
    h.add(-3.0);   // negative likewise
    h.add(100.0);  // right edge exclusive
    h.add(1e9);    // far overflow
    EXPECT_EQ(h.underflow(), 3u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.total(), 5u);
    EXPECT_EQ(h.binCount(0) + h.binCount(1), 0u);
    // Extrema are exact even for out-of-range samples.
    EXPECT_DOUBLE_EQ(h.min(), -3.0);
    EXPECT_DOUBLE_EQ(h.max(), 1e9);
}

TEST(LogHistogramTest, MergeMatchesSequential)
{
    Rng rng(11);
    LogHistogram all(1e-3, 1e6, 90), left(1e-3, 1e6, 90),
        right(1e-3, 1e6, 90);
    for (int i = 0; i < 4000; ++i) {
        double v = std::pow(10.0, rng.uniform(-4.0, 7.0));
        all.add(v);
        (i % 3 ? left : right).add(v);
    }
    left.merge(right);
    EXPECT_EQ(left.total(), all.total());
    EXPECT_EQ(left.underflow(), all.underflow());
    EXPECT_EQ(left.overflow(), all.overflow());
    for (std::size_t b = 0; b < all.bins(); ++b)
        EXPECT_EQ(left.binCount(b), all.binCount(b));
    EXPECT_DOUBLE_EQ(left.min(), all.min());
    EXPECT_DOUBLE_EQ(left.max(), all.max());
    EXPECT_DOUBLE_EQ(left.percentile(50.0), all.percentile(50.0));
}

TEST(LogHistogramTest, PercentileAgainstSortedVector)
{
    // The nearest-rank estimate must stay within one bucket's edge
    // ratio of the exact sorted-vector percentile.
    const double lo = 1e-2, hi = 1e5;
    const std::size_t bins = 70; // ratio = 10^(7/70) = 10^0.1
    const double ratio = std::pow(10.0, 0.1);

    Rng rng(5);
    LogHistogram h(lo, hi, bins);
    std::vector<double> values;
    for (int i = 0; i < 10000; ++i) {
        double v = std::pow(10.0, rng.uniform(-1.5, 4.5));
        values.push_back(v);
        h.add(v);
    }
    std::sort(values.begin(), values.end());

    for (double p : {5.0, 25.0, 50.0, 75.0, 95.0, 99.0}) {
        auto rank = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(values.size())));
        double exact = values[std::max<std::size_t>(rank, 1) - 1];
        double estimate = h.percentile(p);
        EXPECT_GT(estimate, exact / ratio) << "p" << p;
        EXPECT_LT(estimate, exact * ratio) << "p" << p;
    }
}

TEST(LogHistogramTest, PercentileClampsToExactExtrema)
{
    LogHistogram h(1.0, 1e6, 60);
    for (double v : {3.0, 30.0, 300.0, 3000.0})
        h.add(v);
    // p = 0 selects the minimum's bucket, whose geometric midpoint
    // lies below 3.0; the clamp makes it exact.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 3.0);
    // p = 100 lands in the maximum's bucket: within one edge ratio.
    const double ratio = std::pow(10.0, 0.1);
    EXPECT_GE(h.percentile(100.0), 3000.0 / ratio);
    EXPECT_LE(h.percentile(100.0), 3000.0);
}

TEST(LogHistogramTest, SingleValueDistributionIsExact)
{
    LogHistogram h(1.0, 1e6, 60);
    for (int i = 0; i < 100; ++i)
        h.add(7.0);
    // min == max == 7: the clamp collapses every percentile to it.
    for (double p : {0.0, 50.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(h.percentile(p), 7.0);
}

TEST(LogHistogramTest, PercentileOfEmptyIsZero)
{
    LogHistogram h(1.0, 10.0, 4);
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
}

TEST(LogHistogramTest, PercentileAllUnderflowReturnsTrueMin)
{
    LogHistogram h(1.0, 10.0, 4);
    h.add(0.25);
    h.add(0.5);
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.25);
}

TEST(LogHistogramDeathTest, InvalidConstruction)
{
    EXPECT_DEATH(LogHistogram(0.0, 10.0, 4), "positive");
    EXPECT_DEATH(LogHistogram(10.0, 10.0, 4), "non-empty");
    EXPECT_DEATH(LogHistogram(1.0, 10.0, 0), "at least one bin");
}

TEST(LogHistogramDeathTest, MergeLayoutMismatch)
{
    LogHistogram a(1.0, 10.0, 4);
    LogHistogram b(1.0, 10.0, 8);
    EXPECT_DEATH(a.merge(b), "layout");
}

} // namespace
} // namespace mindful
