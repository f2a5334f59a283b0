#include "obs/handles.hh"

#include <algorithm>
#include <cmath>

namespace mindful::obs {

std::uint64_t
CounterCells::total() const
{
    std::uint64_t sum = 0;
    for (const HotCell &stripe : stripes)
        sum += stripe.value.load(std::memory_order_relaxed);
    return sum;
}

HistogramCells::HistogramCells()
{
    reset();
}

void
HistogramCells::reset()
{
    for (auto &count : counts)
        count.store(0, std::memory_order_relaxed);
    total.store(0, std::memory_order_relaxed);
    underflow.store(0, std::memory_order_relaxed);
    overflow.store(0, std::memory_order_relaxed);
    sum.store(0.0, std::memory_order_relaxed);
    minSeen.store(std::numeric_limits<double>::infinity(),
                  std::memory_order_relaxed);
    maxSeen.store(-std::numeric_limits<double>::infinity(),
                  std::memory_order_relaxed);
}

/**
 * Nearest-rank percentile over the atomic buckets — the same
 * arithmetic as LogHistogram::percentile (base/stats.cc), so a
 * histogram cell and a LogHistogram fed identical samples report
 * identical percentiles.
 */
double
HistogramCells::percentile(double p) const
{
    const std::uint64_t n = total.load(std::memory_order_relaxed);
    if (n == 0)
        return 0.0;
    const double min_seen = minSeen.load(std::memory_order_relaxed);
    const double max_seen = maxSeen.load(std::memory_order_relaxed);

    auto rank = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    rank = std::max<std::uint64_t>(rank, 1);

    std::uint64_t cumulative = underflow.load(std::memory_order_relaxed);
    if (rank <= cumulative)
        return min_seen;
    for (std::size_t i = 0; i < kHistogramBins; ++i) {
        cumulative += counts[i].load(std::memory_order_relaxed);
        if (rank <= cumulative) {
            const double ratio = kHistogramHi / kHistogramLo;
            const double bins = static_cast<double>(kHistogramBins);
            const double lower = kHistogramLo *
                std::pow(ratio, static_cast<double>(i) / bins);
            const double upper = kHistogramLo *
                std::pow(ratio, static_cast<double>(i + 1) / bins);
            return std::clamp(std::sqrt(lower * upper), min_seen,
                              max_seen);
        }
    }
    return max_seen;
}

std::uint64_t
HistogramHandle::count() const
{
    return _cells ? _cells->total.load(std::memory_order_relaxed) : 0;
}

double
HistogramHandle::sum() const
{
    return _cells ? _cells->sum.load(std::memory_order_relaxed) : 0.0;
}

double
HistogramHandle::percentile(double p) const
{
    return _cells ? _cells->percentile(p) : 0.0;
}

} // namespace mindful::obs
