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
#include <memory>

#include "base/compiler.hh"
#include "obs/event.hh"

namespace mindful::obs {

namespace detail {

/** The process-wide recording gate (MetricRegistry::setEnabled). */
MINDFUL_ATOMIC_ROLE(once_flag)
extern std::atomic<bool> g_metricsEnabled;

inline bool
metricsEnabled()
{
    return g_metricsEnabled.load(std::memory_order_relaxed);
}

} // namespace detail

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

/** Bucket layout for a histogram metric. */
struct HistogramOptions
{
    /** Lower edge of the first log-spaced bucket (must be > 0). */
    double lo = 1e-3;

    /** Upper edge of the last bucket. */
    double hi = 1e9;

    /** Bucket count across [lo, hi). */
    std::size_t bins = 120;
};

/**
 * Storage behind a HistogramHandle: an atomic mirror of LogHistogram's
 * bucket layout (base/stats.hh), so percentiles match a LogHistogram
 * fed the same samples bit for bit.
 */
struct HistogramCells
{
    explicit HistogramCells(HistogramOptions options);

    /** Nearest-rank percentile, p in [0, 100]; see LogHistogram. */
    double percentile(double p) const;

    /** Zero every bucket and statistic. */
    void reset();

    double lo = 0.0;
    double hi = 0.0;
    double logLo = 0.0;
    double invLogRatio = 0.0;
    std::size_t bins = 0;
    MINDFUL_ATOMIC_ROLE(stat_counter)
    std::unique_ptr<std::atomic<std::uint64_t>[]> counts;
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
 * nothing. Honors the registry's runtime gate.
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
        if (_cells == nullptr || !detail::metricsEnabled())
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

/** Pre-resolved histogram; same gate semantics as CounterHandle. */
class HistogramHandle
{
  public:
    HistogramHandle() = default;

    bool valid() const { return _cells != nullptr; }

    /** Hot-path record: bucket arithmetic + relaxed atomic adds. */
    void
    observe(double value) const
    {
        if (_cells == nullptr || !detail::metricsEnabled())
            return;
        HistogramCells &h = *_cells;
        h.total.fetch_add(1, std::memory_order_relaxed);
        atomicMinDouble(h.minSeen, value);
        atomicMaxDouble(h.maxSeen, value);
        atomicAddDouble(h.sum, value);
        if (value < h.lo) {
            h.underflow.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        // Same exclusive right edge as LogHistogram::add.
        if (value >= h.hi) {
            h.overflow.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        auto idx = static_cast<std::size_t>(
            (std::log(value) - h.logLo) * h.invLogRatio);
        if (idx >= h.bins) {
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

/**
 * Record macros over pre-resolved handles. They vanish under
 * MINDFUL_OBS_DISABLED (arguments unevaluated). Code that prefers the
 * analyzer to certify its record sites calls .bump()/.observe()
 * directly instead — see docs/observability.md.
 */
#ifndef MINDFUL_OBS_DISABLED

#define MINDFUL_HOT_COUNT(handle, n) (handle).bump((n))
#define MINDFUL_HOT_RECORD(handle, v) (handle).observe((v))

#else

#define MINDFUL_HOT_COUNT(handle, n) \
    do { \
    } while (0)
#define MINDFUL_HOT_RECORD(handle, v) \
    do { \
    } while (0)

#endif // MINDFUL_OBS_DISABLED

#endif // MINDFUL_OBS_HANDLES_HH
