/**
 * @file
 * Streaming statistics accumulators.
 *
 * The serial references for the obs metric handles: obs/handles.hh
 * mirrors LogHistogram's bucket layout, and the handle tests compare
 * a handle's snapshot against LogHistogram and RunningStats bit for
 * bit.
 */

#ifndef MINDFUL_BASE_STATS_HH
#define MINDFUL_BASE_STATS_HH

#include <cstddef>
#include <limits>
#include <vector>

namespace mindful {

/**
 * Welford-style running mean / variance / extrema accumulator.
 *
 * Numerically stable for long streams; O(1) memory.
 */
class RunningStats
{
  public:
    void add(double x);

    /** Merge another accumulator into this one (parallel reduction). */
    void merge(const RunningStats &other);

    std::size_t count() const { return _count; }

    /** Mean of the samples; 0 when no samples have been added. */
    double mean() const { return _mean; }

    /**
     * Population variance (n divisor).
     *
     * Defined as 0 for n = 0 (no data) and n = 1 (a single sample has
     * no spread); never negative even when floating-point cancellation
     * drives the internal sum of squares slightly below zero.
     */
    double variance() const;

    /**
     * Sample variance (n - 1 divisor, Bessel's correction).
     *
     * Undefined for fewer than 2 samples; returns 0 there (n = 0, 1)
     * rather than dividing by zero. Clamped at 0 like variance().
     */
    double sampleVariance() const;

    double stddev() const;
    double min() const { return _min; }
    double max() const { return _max; }
    double sum() const { return _mean * static_cast<double>(_count); }

  private:
    std::size_t _count = 0;
    double _mean = 0.0;
    double _m2 = 0.0;
    double _min = std::numeric_limits<double>::infinity();
    double _max = -std::numeric_limits<double>::infinity();
};

/**
 * Log-spaced (geometric) histogram with quantile estimation.
 *
 * Covers [lo, hi) with bins whose edges grow by a constant ratio, so
 * a single histogram spans many orders of magnitude (nanoseconds to
 * seconds, picojoules to joules) at a bounded relative error. Values
 * below @p lo — including zero and negatives, for which a log bucket
 * does not exist — land in the underflow bucket; values at or above
 * @p hi land in the overflow bucket. True extrema are tracked exactly
 * so percentile() can clamp its bucket interpolation.
 *
 * The metric registry (src/obs) uses this as its latency/energy
 * distribution type; merge() supports the same parallel-reduction
 * pattern as RunningStats::merge.
 */
class LogHistogram
{
  public:
    /**
     * @param lo lower edge of the first bin; must be positive.
     * @param hi upper edge of the last bin; must exceed @p lo.
     * @param bins number of bins; must be positive.
     */
    LogHistogram(double lo, double hi, std::size_t bins);

    void add(double x);

    /**
     * Merge another histogram into this one. Both must have identical
     * bucket layouts (same lo, hi, bin count).
     */
    void merge(const LogHistogram &other);

    std::size_t bins() const { return _counts.size(); }
    std::size_t binCount(std::size_t i) const { return _counts.at(i); }
    std::size_t underflow() const { return _underflow; }
    std::size_t overflow() const { return _overflow; }
    std::size_t total() const { return _total; }

    double lowerBound() const { return _lo; }
    double upperBound() const { return _hi; }

    /** Lower edge of bin @p i (== lo * ratio^i). */
    double binLowerEdge(std::size_t i) const;

    /** Upper edge of bin @p i (== lower edge of bin i + 1). */
    double binUpperEdge(std::size_t i) const;

    /** Smallest / largest value ever added (exact, not bucketed). */
    double min() const { return _min; }
    double max() const { return _max; }

    /**
     * Estimate the @p p-th percentile (p in [0, 100]) by nearest-rank
     * over the bucket counts, interpolating to the geometric midpoint
     * of the selected bucket and clamping to the exact extrema. The
     * relative error is bounded by one bucket ratio. Returns 0 when
     * the histogram is empty.
     */
    double percentile(double p) const;

  private:
    double _lo;
    double _hi;
    double _invLogRatio; //!< 1 / ln(edge ratio), for O(1) bucketing
    std::vector<std::size_t> _counts;
    std::size_t _underflow = 0;
    std::size_t _overflow = 0;
    std::size_t _total = 0;
    double _min = std::numeric_limits<double>::infinity();
    double _max = -std::numeric_limits<double>::infinity();
};

} // namespace mindful

#endif // MINDFUL_BASE_STATS_HH
