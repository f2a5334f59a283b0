#include "base/stats.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace mindful {

void
RunningStats::add(double x)
{
    ++_count;
    double delta = x - _mean;
    _mean += delta / static_cast<double>(_count);
    _m2 += delta * (x - _mean);
    _min = std::min(_min, x);
    _max = std::max(_max, x);
}

void
RunningStats::merge(const RunningStats &other)
{
    if (other._count == 0)
        return;
    if (_count == 0) {
        *this = other;
        return;
    }
    double total = static_cast<double>(_count + other._count);
    double delta = other._mean - _mean;
    _m2 += other._m2 + delta * delta *
           (static_cast<double>(_count) * static_cast<double>(other._count)) /
           total;
    _mean += delta * static_cast<double>(other._count) / total;
    _count += other._count;
    _min = std::min(_min, other._min);
    _max = std::max(_max, other._max);
}

double
RunningStats::variance() const
{
    // n = 0 and n = 1 have no spread; cancellation in merge() can
    // leave _m2 a hair below zero, so clamp instead of surfacing a
    // negative variance (and a NaN stddev).
    if (_count < 2)
        return 0.0;
    return std::max(0.0, _m2 / static_cast<double>(_count));
}

double
RunningStats::sampleVariance() const
{
    if (_count < 2)
        return 0.0;
    return std::max(0.0, _m2 / static_cast<double>(_count - 1));
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

LogHistogram::LogHistogram(double lo, double hi, std::size_t bins)
    : _lo(lo), _hi(hi), _counts(bins, 0)
{
    MINDFUL_ASSERT(lo > 0.0, "LogHistogram lower edge must be positive");
    MINDFUL_ASSERT(hi > lo, "LogHistogram range must be non-empty");
    MINDFUL_ASSERT(bins > 0, "LogHistogram needs at least one bin");
    _invLogRatio =
        static_cast<double>(bins) / (std::log(hi) - std::log(lo));
}

void
LogHistogram::add(double x)
{
    ++_total;
    _min = std::min(_min, x);
    _max = std::max(_max, x);
    if (x < _lo) {
        ++_underflow;
        return;
    }
    // Test >= hi directly rather than relying on the bucket index
    // computation: rounding in log() can place x == hi a hair inside
    // the last bin, breaking the exclusive right edge.
    if (x >= _hi) {
        ++_overflow;
        return;
    }
    auto idx = static_cast<std::size_t>(
        (std::log(x) - std::log(_lo)) * _invLogRatio);
    if (idx >= _counts.size()) {
        ++_overflow;
        return;
    }
    ++_counts[idx];
}

void
LogHistogram::merge(const LogHistogram &other)
{
    MINDFUL_ASSERT(_lo == other._lo && _hi == other._hi &&
                       _counts.size() == other._counts.size(),
                   "cannot merge LogHistograms with different layouts");
    for (std::size_t i = 0; i < _counts.size(); ++i)
        _counts[i] += other._counts[i];
    _underflow += other._underflow;
    _overflow += other._overflow;
    _total += other._total;
    _min = std::min(_min, other._min);
    _max = std::max(_max, other._max);
}

double
LogHistogram::binLowerEdge(std::size_t i) const
{
    MINDFUL_ASSERT(i < _counts.size(), "bin index out of range");
    double frac = static_cast<double>(i) /
                  static_cast<double>(_counts.size());
    return _lo * std::pow(_hi / _lo, frac);
}

double
LogHistogram::binUpperEdge(std::size_t i) const
{
    MINDFUL_ASSERT(i < _counts.size(), "bin index out of range");
    double frac = static_cast<double>(i + 1) /
                  static_cast<double>(_counts.size());
    return _lo * std::pow(_hi / _lo, frac);
}

double
LogHistogram::percentile(double p) const
{
    MINDFUL_ASSERT(p >= 0.0 && p <= 100.0,
                   "percentile must lie in [0, 100]");
    if (_total == 0)
        return 0.0;

    // Nearest-rank: the k-th smallest sample with k = ceil(p/100 * n),
    // at least 1.
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(_total)));
    rank = std::max<std::size_t>(rank, 1);

    std::size_t cumulative = _underflow;
    if (rank <= cumulative)
        return _min; // somewhere below the histogram range
    for (std::size_t i = 0; i < _counts.size(); ++i) {
        cumulative += _counts[i];
        if (rank <= cumulative) {
            // Geometric midpoint of the bucket, clamped to the true
            // extrema so single-bucket distributions stay exact-ish.
            double mid =
                std::sqrt(binLowerEdge(i) * binUpperEdge(i));
            return std::clamp(mid, _min, _max);
        }
    }
    return _max; // in the overflow bucket
}

} // namespace mindful
