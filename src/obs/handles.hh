/**
 * @file
 * Metric cells and the handles that record into them: the record
 * side of the metric system.
 *
 * Every metric lives in a cell owned by a MetricRegistry
 * (obs/metrics.hh). A handle is resolved by name once — resolution
 * locks — and records through a raw pointer forever after:
 *
 *   CounterHandle::bump      one relaxed fetch_add into the calling
 *                            thread's stripe (no lookup, no lock);
 *   HistogramHandle::observe log-bucket index arithmetic plus relaxed
 *                            atomic adds (CAS loops for min/max/sum);
 *   Gauge::set               a relaxed store plus a release flag.
 *
 * The record bodies live inline in this header, inside the analyzer's
 * scan root, so the purity checker *verifies* them rather than taking
 * them on faith — instrumented shard roots need no `hot-ok` hatch.
 *
 * Counter totals are exact and order-independent (integer adds
 * commute); histogram bucket counts, count, min and max likewise. Only
 * a histogram's mean is accumulated in floating point and may differ
 * in the last ulp across thread interleavings — keep
 * determinism-contract metrics on counters (docs/observability.md).
 */

#ifndef MINDFUL_OBS_HANDLES_HH
#define MINDFUL_OBS_HANDLES_HH

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "base/compiler.hh"
#include "obs/event.hh"

namespace mindful::obs {

/** Stripe count for counters; power of two, ~one per active core. */
constexpr std::size_t kMetricStripes = 8;

/** Map the calling thread onto one of kMetricStripes cells. */
inline std::size_t
hotStripeIndex()
{
    return currentThreadId() & (kMetricStripes - 1);
}

/** One cache line per stripe: concurrent bumps never false-share. */
struct alignas(64) HotCell
{
    MINDFUL_ATOMIC_ROLE(stat_counter)
    std::atomic<std::uint64_t> value{0};
};

/** Storage behind a CounterHandle; owned by a MetricRegistry. */
struct CounterCells
{
    HotCell stripes[kMetricStripes];

    /** Sum of the stripes (exact once producers rest). */
    std::uint64_t total() const;
};

/**
 * Bucket layout of every histogram metric: kHistogramBins log-spaced
 * buckets across [kHistogramLo, kHistogramHi), with underflow and
 * overflow counted apart.
 */
constexpr double kHistogramLo = 1e-3;
constexpr double kHistogramHi = 1e9;
constexpr std::size_t kHistogramBins = 120;

static_assert(kHistogramLo > 0.0 && kHistogramHi > kHistogramLo &&
                  kHistogramBins > 0,
              "histogram needs 0 < lo < hi and at least one bin");

/**
 * Storage behind a HistogramHandle: an atomic mirror of LogHistogram's
 * bucket layout (base/stats.hh), so percentiles match a LogHistogram
 * built with the same constants and fed the same samples bit for bit.
 */
struct HistogramCells
{
    HistogramCells();

    /** Nearest-rank percentile, p in [0, 100]; see LogHistogram. */
    double percentile(double p) const;

    /** Zero every bucket and statistic. */
    void reset();

    /** log(kHistogramLo), hoisted out of every record. */
    const double logLo = std::log(kHistogramLo);
    /** Buckets per unit of log(value). */
    const double invLogRatio =
        static_cast<double>(kHistogramBins) /
        (std::log(kHistogramHi) - std::log(kHistogramLo));
    MINDFUL_ATOMIC_ROLE(stat_counter)
    std::atomic<std::uint64_t> total{0};
    MINDFUL_ATOMIC_ROLE(stat_counter)
    std::atomic<std::uint64_t> underflow{0};
    MINDFUL_ATOMIC_ROLE(stat_counter)
    std::atomic<std::uint64_t> overflow{0};
    MINDFUL_ATOMIC_ROLE(stat_counter)
    std::atomic<double> sum{0.0};
    MINDFUL_ATOMIC_ROLE(stat_counter)
    std::atomic<double> minSeen{std::numeric_limits<double>::infinity()};
    MINDFUL_ATOMIC_ROLE(stat_counter)
    std::atomic<double> maxSeen{-std::numeric_limits<double>::infinity()};
    // Last, so the statistics every record touches share a line with
    // logLo and invLogRatio.
    MINDFUL_ATOMIC_ROLE(stat_counter)
    std::atomic<std::uint64_t> counts[kHistogramBins];
};

/** Relaxed CAS add; std::atomic<double> has no portable fetch_add. */
inline void
atomicAddDouble(MINDFUL_ATOMIC_ROLE(stat_counter)
                std::atomic<double> &cell, double delta)
{
    double seen = cell.load(std::memory_order_relaxed);
    while (!cell.compare_exchange_weak(seen, seen + delta,
                                       std::memory_order_relaxed)) {
    }
}

inline void
atomicMinDouble(MINDFUL_ATOMIC_ROLE(stat_counter)
                std::atomic<double> &cell, double candidate)
{
    double seen = cell.load(std::memory_order_relaxed);
    while (candidate < seen &&
           !cell.compare_exchange_weak(seen, candidate,
                                       std::memory_order_relaxed)) {
    }
}

inline void
atomicMaxDouble(MINDFUL_ATOMIC_ROLE(stat_counter)
                std::atomic<double> &cell, double candidate)
{
    double seen = cell.load(std::memory_order_relaxed);
    while (candidate > seen &&
           !cell.compare_exchange_weak(seen, candidate,
                                       std::memory_order_relaxed)) {
    }
}

/**
 * Last-written instantaneous value (utilization, overhead, ...). The
 * cell itself is the handle: MetricRegistry::gauge() returns a
 * reference that stays valid for the registry's lifetime.
 */
class Gauge
{
  public:
    void
    set(double v)
    {
        _value.store(v, std::memory_order_relaxed);
        // Release pairs with isSet()'s acquire: a reader that observes
        // the flag also observes the value stored above.
        _set.store(true, std::memory_order_release);
    }

    double
    value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

    /** Whether set() has been called since construction or reset(). */
    bool
    isSet() const
    {
        return _set.load(std::memory_order_acquire);
    }

    void
    reset()
    {
        _set.store(false, std::memory_order_relaxed);
        _value.store(0.0, std::memory_order_relaxed);
    }

  private:
    MINDFUL_ATOMIC_ROLE(stat_counter)
    std::atomic<double> _value{0.0};
    MINDFUL_ATOMIC_ROLE(once_flag)
    std::atomic<bool> _set{false};
};

/**
 * Pre-resolved counter. Copyable; default-constructed handles record
 * nothing.
 */
class CounterHandle
{
  public:
    CounterHandle() = default;

    bool valid() const { return _cells != nullptr; }

    /** Hot-path record: one relaxed add into this thread's stripe. */
    void
    bump(std::uint64_t n = 1) const
    {
        if (_cells == nullptr)
            return;
        _cells->stripes[hotStripeIndex()].value.fetch_add(
            n, std::memory_order_relaxed);
    }

    /** Exact total across stripes (export/test side, not hot). */
    std::uint64_t total() const { return _cells ? _cells->total() : 0; }

  private:
    friend class MetricRegistry;
    explicit CounterHandle(CounterCells *cells) : _cells(cells) {}

    CounterCells *_cells = nullptr;
};

/** Pre-resolved histogram; a default-constructed one records nothing. */
class HistogramHandle
{
  public:
    HistogramHandle() = default;

    bool valid() const { return _cells != nullptr; }

    /** Hot-path record: bucket arithmetic + relaxed atomic adds. */
    void
    observe(double value) const
    {
        if (_cells == nullptr)
            return;
        HistogramCells &h = *_cells;
        h.total.fetch_add(1, std::memory_order_relaxed);
        atomicMinDouble(h.minSeen, value);
        atomicMaxDouble(h.maxSeen, value);
        atomicAddDouble(h.sum, value);
        if (value < kHistogramLo) {
            h.underflow.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        // Same exclusive right edge as LogHistogram::add.
        if (value >= kHistogramHi) {
            h.overflow.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        auto idx = static_cast<std::size_t>(
            (std::log(value) - h.logLo) * h.invLogRatio);
        if (idx >= kHistogramBins) {
            h.overflow.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        h.counts[idx].fetch_add(1, std::memory_order_relaxed);
    }

    std::uint64_t count() const;
    double sum() const;
    double percentile(double p) const;

  private:
    friend class MetricRegistry;
    explicit HistogramHandle(HistogramCells *cells) : _cells(cells) {}

    HistogramCells *_cells = nullptr;
};

} // namespace mindful::obs

#endif // MINDFUL_OBS_HANDLES_HH
