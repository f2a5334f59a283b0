#include "obs/handles.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace mindful::obs {

namespace detail {

MINDFUL_ATOMIC_ROLE(once_flag)
std::atomic<bool> g_metricsEnabled{true};

} // namespace detail

std::uint64_t
CounterCells::total() const
{
    std::uint64_t sum = 0;
    for (const HotCell &stripe : stripes)
        sum += stripe.value.load(std::memory_order_relaxed);
    return sum;
}

HistogramCells::HistogramCells(HistogramOptions options)
    : lo(options.lo), hi(options.hi), logLo(std::log(options.lo)),
      bins(options.bins)
{
    MINDFUL_ASSERT(options.lo > 0.0 && options.hi > options.lo &&
                       options.bins > 0,
                   "histogram needs 0 < lo < hi and at least one bin");
    invLogRatio = static_cast<double>(options.bins) /
                  (std::log(options.hi) - std::log(options.lo));
    counts = std::make_unique<std::atomic<std::uint64_t>[]>(options.bins);
    reset();
}

void
HistogramCells::reset()
{
    for (std::size_t i = 0; i < bins; ++i)
        counts[i].store(0, std::memory_order_relaxed);
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
    for (std::size_t i = 0; i < bins; ++i) {
        cumulative += counts[i].load(std::memory_order_relaxed);
        if (rank <= cumulative) {
            const double ratio = hi / lo;
            const double lower = lo * std::pow(
                ratio, static_cast<double>(i) / static_cast<double>(bins));
            const double upper =
                lo * std::pow(ratio, static_cast<double>(i + 1) /
                                         static_cast<double>(bins));
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
