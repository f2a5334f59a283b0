/**
 * @file
 * Metric registry: named counters, gauges, and distribution
 * (histogram) metrics, and their CSV/JSON export.
 *
 * The registry is the single reporting path for everything the
 * executable substrates measure — Monte-Carlo sample counts, simulated
 * cycles and energy, closed-loop latency decompositions. It is also
 * the one cell store: counter(), gauge() and histogram() resolve a
 * name (creating the cell on first use, under a lock) to a handle
 * from obs/handles.hh, and every record goes through that handle.
 * Cells are never freed, so handles never dangle; clear() zeroes them.
 *
 * The MINDFUL_METRIC_* macros are the by-name spelling of the same
 * record: a string-literal name resolves once per site and is reused,
 * a name built at run time resolves on every call, and neither is
 * evaluated while the registry is runtime-disabled.
 *
 * Metric names are dot-separated paths, lowercase with underscores,
 * `<subsystem>.<component>.<quantity>[_<unit>]` — e.g.
 * `comm.qam.bit_errors`, `accel.layer.energy_pj`,
 * `core.closed_loop.loop_latency_us`. See docs/observability.md.
 *
 * Define `MINDFUL_OBS_DISABLED` to compile the macros at the bottom of
 * this header to no-ops; the classes themselves remain available.
 */

#ifndef MINDFUL_OBS_METRICS_HH
#define MINDFUL_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/compiler.hh"
#include "base/table.hh"
#include "obs/handles.hh"

namespace mindful::obs {

/** One row of MetricRegistry::snapshotTable(), for programmatic use. */
struct MetricSample
{
    std::string name;
    std::string type; //!< "counter", "gauge", or "histogram"
    double value = 0.0; //!< counter/gauge value; histogram mean
    std::size_t count = 0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
};

/**
 * Named collection of metric cells. A metric name may only ever be
 * used with one metric kind.
 */
class MetricRegistry
{
  public:
    MetricRegistry() = default;
    MetricRegistry(const MetricRegistry &) = delete;
    MetricRegistry &operator=(const MetricRegistry &) = delete;

    /** The process-wide registry the instrumented substrates use. */
    static MetricRegistry &global();

    /**
     * Process-wide recording gate, on by default. While disabled every
     * handle records nothing and the MINDFUL_METRIC_* macros neither
     * resolve nor evaluate their names; instrumented code must also
     * skip any *preparation* of a recording (per-call aggregation,
     * runtime name formatting) behind enabled(), so a disabled
     * registry costs one relaxed atomic load per site.
     */
    static void
    setEnabled(bool enabled)
    {
        detail::g_metricsEnabled.store(enabled, std::memory_order_relaxed);
    }

    static bool enabled() { return detail::metricsEnabled(); }

    CounterHandle counter(std::string_view name);
    Gauge &gauge(std::string_view name);
    HistogramHandle histogram(std::string_view name,
                              HistogramOptions options = {});

    /** Whether @p name is a live row (see clear()). */
    bool contains(std::string_view name) const;

    /** Number of live rows, all kinds. */
    std::size_t size() const;

    /**
     * Zero every cell and drop every row. Handles stay valid; a row
     * comes back when its name is resolved again or its cell holds a
     * nonzero count (or a set gauge) again.
     */
    void clear();

    /** Name-sorted snapshot of every live row. */
    std::vector<MetricSample> snapshot() const;

    /**
     * Snapshot as a Table (name, type, count, value, min, p50, p95,
     * p99, max) — print() for humans, printCsv() for machines.
     */
    Table snapshotTable() const;

    /** Snapshot as a JSON object keyed by metric name. */
    void writeJson(std::ostream &os) const;

  private:
    struct Entry
    {
        std::unique_ptr<CounterCells> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<HistogramCells> histogram;
        bool resolved = true; //!< resolved since the last clear()

        bool live() const;
    };

    /** Find or create @p name's entry, checking its kind. */
    Entry &resolveLocked(std::string_view name, const char *kind)
        MINDFUL_REQUIRES(_mutex);

    mutable Mutex _mutex;
    std::map<std::string, Entry, std::less<>>
        _entries MINDFUL_GUARDED_BY(_mutex);
};

} // namespace mindful::obs

#ifndef MINDFUL_OBS_DISABLED

#define MINDFUL_METRIC_COUNT(name, n) \
    do { \
        if (::mindful::obs::MetricRegistry::enabled()) \
            MINDFUL_OBS_RESOLVE( \
                name, \
                ::mindful::obs::MetricRegistry::global().counter((name))) \
                .bump((n)); \
    } while (0)
#define MINDFUL_METRIC_GAUGE(name, v) \
    do { \
        if (::mindful::obs::MetricRegistry::enabled()) \
            MINDFUL_OBS_RESOLVE( \
                name, \
                ::mindful::obs::MetricRegistry::global().gauge((name))) \
                .set((v)); \
    } while (0)
#define MINDFUL_METRIC_RECORD(name, v) \
    do { \
        if (::mindful::obs::MetricRegistry::enabled()) \
            MINDFUL_OBS_RESOLVE( \
                name, ::mindful::obs::MetricRegistry::global().histogram( \
                          (name))) \
                .observe((v)); \
    } while (0)

#else

#define MINDFUL_METRIC_COUNT(name, n) \
    do { \
    } while (0)
#define MINDFUL_METRIC_GAUGE(name, v) \
    do { \
    } while (0)
#define MINDFUL_METRIC_RECORD(name, v) \
    do { \
    } while (0)

#endif // MINDFUL_OBS_DISABLED

#endif // MINDFUL_OBS_METRICS_HH
