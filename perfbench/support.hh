/**
 * @file
 * Shared pieces of the end-to-end benchmark: the clock, the in-memory
 * span recorder of traced runs, order statistics, and the metric list
 * every run prints as its last line.
 *
 * Spans are recorded only by the benchmark's own code, around calls
 * into the public functions of the libraries it measures; no library
 * is instrumented for it.
 */

#ifndef PERFBENCH_SUPPORT_HH
#define PERFBENCH_SUPPORT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Seconds on the steady clock since the first call in this process. */
double nowS();

/**
 * CPU time of this process, all threads together [s]. Time the
 * hypervisor steals from a virtual CPU, and time a thread waits to run,
 * is not CPU time, so this clock is the one op costs are measured on.
 */
double cpuS();

/** FNV-1a over the eight bytes of @p value, folded into @p hash. */
std::uint64_t fnvMix(std::uint64_t hash, std::uint64_t value);

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

/** Linear-interpolated quantile, @p q in [0, 1]; 0 for no samples. */
double quantile(std::vector<double> values, double q);

inline double median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** Peak resident set size of this process so far [MiB]. */
double peakRssMb();

/** One recorded interval. Names are string literals (never freed). */
struct Span
{
    const char *name = nullptr;
    double start = 0.0; //!< nowS() at entry
    double end = 0.0;   //!< nowS() at exit
    std::int32_t parent = -1;
    std::uint32_t op = 0; //!< set / batch / hop id the span belongs to
};

/**
 * Append-only span store with a fixed capacity, so recording never
 * allocates inside a timed region. Spans past the capacity are counted
 * in dropped() and not stored.
 */
class Tracer
{
  public:
    explicit Tracer(std::size_t capacity);

    /** Open a span; returns its index (or -1 once full). */
    std::int32_t
    open(const char *name, std::uint32_t op, std::int32_t parent)
    {
        if (_spans.size() == _spans.capacity()) {
            ++_dropped;
            return -1;
        }
        _spans.push_back(Span{name, nowS(), 0.0, parent, op});
        return static_cast<std::int32_t>(_spans.size() - 1);
    }

    void
    close(std::int32_t index)
    {
        if (index >= 0)
            _spans[static_cast<std::size_t>(index)].end = nowS();
    }

    const std::vector<Span> &spans() const { return _spans; }
    std::uint64_t dropped() const { return _dropped; }

    /** Duration minus the time covered by direct children, per span. */
    std::vector<double> selfTimes() const;

    /**
     * Per-op totals of every span called @p name [ms], one entry per
     * op that has at least one such span.
     */
    std::vector<double> perOpMs(const char *name) const;

    /** Write every span as CSV (id,parent,op,name,start_us,end_us). */
    void writeCsv(const std::string &path) const;

  private:
    std::vector<Span> _spans;
    std::uint64_t _dropped = 0;
};

/** RAII span; a no-op when the tracer is null. */
class Scope
{
  public:
    Scope(Tracer *tracer, const char *name, std::uint32_t op,
          std::int32_t parent = -1)
        : _tracer(tracer),
          _index(tracer ? tracer->open(name, op, parent) : -1)
    {
    }
    ~Scope()
    {
        if (_tracer)
            _tracer->close(_index);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::int32_t index() const { return _index; }

  private:
    Tracer *_tracer;
    std::int32_t _index;
};

/** A named, unit-tagged measurement. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Metrics by name (printed in name order). */
using Metrics = std::map<std::string, Metric>;

/**
 * What one workload pass measured: the wall and CPU duration of every
 * operation (figure set, query batch or loop hop), and the checks it
 * made.
 */
struct PassStats
{
    std::vector<double> opMs;    //!< wall time per op
    std::vector<double> opCpuMs; //!< process CPU time per op
    std::uint64_t attempted = 0; //!< checked operations
    std::uint64_t failed = 0;    //!< operations whose check failed

    /** Whether op i was traced. */
    std::vector<bool> traced;

    /** Digests and counts the result file records beside the metrics. */
    std::map<std::string, std::string> facts;
};

/** Both clocks at the start of an op; record() appends its duration. */
struct OpClock
{
    double wall = nowS();
    double cpu = cpuS();

    void
    record(PassStats &stats) const
    {
        const double cpu_end = cpuS();
        stats.opMs.push_back((nowS() - wall) * 1e3);
        stats.opCpuMs.push_back((cpu_end - cpu) * 1e3);
    }
};

/**
 * Run @p op(index, stats, tracer) back to back until @p seconds have
 * passed and at least @p min_ops ops ran. Each op records its own
 * duration with an OpClock. With a @p tracer, every odd op is traced
 * and every even op is not, so the two kinds run under the same
 * conditions (traceOverhead()).
 */
template <typename Op>
PassStats
runFor(double seconds, std::size_t min_ops, Tracer *tracer, Op &&op)
{
    PassStats stats;
    const double deadline = nowS() + seconds;
    for (std::uint32_t i = 0;
         nowS() < deadline || stats.opMs.size() < min_ops; ++i) {
        Tracer *traced = tracer && i % 2 == 1 ? tracer : nullptr;
        op(i, stats, traced);
        stats.traced.push_back(traced != nullptr);
    }
    return stats;
}

/** Ops per second and op-time quantiles of one clock. */
struct Summary
{
    double opsPerSecond = 0.0; //!< ops / summed op time
    double p50Ms = 0.0;
    double p90Ms = 0.0;
};

Summary summarize(const std::vector<double> &op_ms);

/** Mean traced op CPU time over mean untraced op CPU time. */
double traceOverhead(const PassStats &stats);

/** Sum of self times of every non-root span over the root durations. */
double coverage(const Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_SUPPORT_HH
