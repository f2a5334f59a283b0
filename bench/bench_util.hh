/**
 * @file
 * Shared helpers for the bench binaries.
 *
 * export_figures prints and writes every table of the paper and its
 * extensions (DESIGN.md Sec. 4). The harnesses that print tables
 * (qam_ber_sweep, obs_overhead) print them human-readable, or as CSV
 * only with --csv (emit()). A bad flag value comes back as a Result
 * (flagValue()) and main returns 1 through failed().
 *
 * All binaries also accept the observability flags:
 *   --trace-out FILE    stream Chrome trace JSON while running (the
 *                       collector drains per-thread span rings into
 *                       FILE incrementally; memory stays bounded)
 *   --metrics-out FILE  write a metric-registry snapshot as CSV
 * and the execution flag:
 *   --threads N         size the process-wide thread pool (0 = auto)
 * Call parseObsOptions() early and finalizeObs() before exit (or use
 * ObsGuard, which does both). parseObsOptions also hashes the full
 * command line into the run manifest (obs/manifest.hh) before
 * stripping its own flags, so every trace footer and metrics JSON
 * names the exact invocation that produced it. Output is
 * bit-identical for any --threads value (docs/parallelism.md).
 */

#ifndef MINDFUL_BENCH_BENCH_UTIL_HH
#define MINDFUL_BENCH_BENCH_UTIL_HH

#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "base/logging.hh"
#include "base/parse.hh"
#include "base/table.hh"
#include "exec/thread_pool.hh"
#include "obs/collector.hh"
#include "obs/manifest.hh"
#include "obs/metrics.hh"

namespace mindful::bench {

/** True when the command line requests CSV-only output. */
inline bool
csvOnly(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--csv")
            return true;
    return false;
}

/** Print one table in the requested format. */
inline void
emit(const Table &table, bool csv)
{
    if (csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    std::cout << '\n';
}

/** Observability output destinations requested on the command line. */
struct ObsOptions
{
    std::string traceOut;   //!< Chrome trace JSON path ("" = off)
    std::string metricsOut; //!< metric snapshot CSV path ("" = off)

    /** Open sink the collector streams into; must outlive stop(). */
    std::shared_ptr<std::ofstream> traceStream;

    bool any() const { return !traceOut.empty() || !metricsOut.empty(); }
};

/**
 * Extract --trace-out FILE / --metrics-out FILE / --threads N (also
 * the --flag=VALUE spelling) and *remove them from argv* so
 * downstream flag scans never see them. Sizes the process-wide thread
 * pool when --threads is present (0 = hardware concurrency), and
 * streams the whole run into --trace-out when it is present (the
 * collector drains the calling thread's and the pool workers' rings).
 */
inline ObsOptions
parseObsOptions(int &argc, char **argv)
{
    // Hash the line as invoked — including the obs flags about to be
    // stripped — so the manifest pins the exact reproduction command.
    obs::setManifestConfigHash(obs::hashCommandLine(argc, argv));

    ObsOptions options;
    std::string threads;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto take_value = [&](const std::string &flag,
                              std::string &dest) -> bool {
            if (arg == flag) {
                if (i + 1 >= argc)
                    MINDFUL_FATAL(flag, " requires an argument");
                dest = argv[++i];
                return true;
            }
            if (arg.rfind(flag + "=", 0) == 0) {
                dest = arg.substr(flag.size() + 1);
                return true;
            }
            return false;
        };
        if (take_value("--trace-out", options.traceOut) ||
            take_value("--metrics-out", options.metricsOut) ||
            take_value("--threads", threads))
            continue;
        argv[out++] = argv[i];
    }
    argc = out;

    if (!threads.empty()) {
        // Strict locale-independent parse (base/parse.hh): rejects
        // negatives instead of wrapping them to huge counts, rejects
        // trailing junk, and never throws on garbage.
        std::optional<unsigned> n = parseThreadCount(threads);
        if (!n)
            MINDFUL_FATAL("--threads requires an integer thread count "
                          "in [0, ", kMaxThreadCount,
                          "] (0 = auto), got '", threads, "'");
        exec::ThreadPool::setGlobalThreadCount(*n);
    }

    if (options.any())
        obs::setManifestThreadCount(exec::ThreadPool::globalThreadCount());

    if (!options.traceOut.empty()) {
        options.traceStream =
            std::make_shared<std::ofstream>(options.traceOut);
        if (!*options.traceStream)
            MINDFUL_FATAL("cannot open trace output ", options.traceOut);
        obs::TraceCollector::global().start(options.traceStream.get());
    }
    return options;
}

/** Write the requested trace / metrics files (no-op when unset). */
inline void
finalizeObs(const ObsOptions &options)
{
    if (obs::TraceCollector::global().streaming()) {
        const obs::CollectorTotals totals =
            obs::TraceCollector::global().stop();
        MINDFUL_INFORM("streamed ", totals.emitted, " trace events (",
                       totals.dropped, " dropped at full rings) to ",
                       options.traceOut);
    }
    if (!options.metricsOut.empty()) {
        std::ofstream os(options.metricsOut);
        if (!os)
            MINDFUL_FATAL("cannot open metrics output ",
                          options.metricsOut);
        obs::MetricRegistry::global().snapshotTable().printCsv(os);
        MINDFUL_INFORM("wrote ", obs::MetricRegistry::global().size(),
                       " metrics to ", options.metricsOut);
    }
}

/** RAII wrapper: parse at construction, finalize at destruction. */
class ObsGuard
{
  public:
    ObsGuard(int &argc, char **argv)
        : _options(parseObsOptions(argc, argv))
    {
    }

    ~ObsGuard() { finalizeObs(_options); }

    const ObsOptions &options() const { return _options; }

  private:
    ObsOptions _options;
};

/**
 * A value, such as a parsed flag, or the message saying why there is
 * none. A harness that gets an error prints it and returns 1 from
 * main, so its ObsGuard still closes a --trace-out file as valid JSON
 * (MINDFUL_FATAL would exit past the guard).
 */
template <class T>
struct Result
{
    T value{};
    std::string error; //!< empty when value is valid

    bool ok() const { return error.empty(); }
};

/**
 * Value of `--flag N` or `--flag=N` on the command line (the first
 * one given), or @p fallback when the flag is absent; an error unless
 * N is a positive integer.
 */
inline Result<std::uint64_t>
flagValue(int argc, char **argv, const std::string &flag,
          std::uint64_t fallback)
{
    const std::string prefix = flag + "=";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::optional<std::string> text;
        if (arg == flag && i + 1 < argc)
            text = argv[i + 1];
        else if (arg.rfind(prefix, 0) == 0)
            text = arg.substr(prefix.size());
        else if (arg != flag)
            continue;
        if (!text)
            return {0, flag + " requires a positive integer"};
        const auto value = parseUnsigned(*text);
        if (!value || *value == 0)
            return {0, flag + " requires a positive integer, got '" +
                           *text + "'"};
        return {*value, ""};
    }
    return {fallback, ""};
}

/** Print "@p program: @p message" to stderr; returns main's status 1. */
inline int
failed(const std::string &program, const std::string &message)
{
    std::cerr << program << ": " << message << '\n';
    return 1;
}

} // namespace mindful::bench

#endif // MINDFUL_BENCH_BENCH_UTIL_HH
