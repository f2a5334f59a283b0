/**
 * @file
 * perfbench: the repository's end-to-end benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --root REPO --out DIR
 *
 * Workloads: figures, serve_zipf, loop_mlp, loop_cnn (see NOTES.md).
 *
 * --trace 0 sets the workload up several times (the median is
 * setup_s), runs it for S seconds, checks every output, and reports
 * the end-to-end metrics. --trace 1 runs the workload for S seconds,
 * tracing every other op, then a short traced census of the other
 * paths and the per-layer DNN table, and reports the per-layer
 * metrics. Either way the last line of stdout is one JSON object
 * {"correct", "attempted", "failed", "metrics"}, and DIR receives a
 * manifest-stamped result file (and, when traced, the span CSV).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "base/parse.hh"
#include "exec/thread_pool.hh"
#include "obs/json.hh"
#include "obs/manifest.hh"
#include "workload.hh"

namespace perfbench {
namespace {

/** Seed reserved for confirming later performance claims (NOTES.md). */
constexpr std::uint64_t kHeldOutSeed = 20261016;

/** Lowest accepted share of traced op time covered by stage spans. */
constexpr double kCoverageMin = 0.95;

/** Traced-run census of the paths other than the workload's own. */
constexpr double kCensusSeconds = 0.5;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string root = ".";
    std::string out = ".";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload figures|serve_zipf|"
                 "loop_mlp|loop_cnn --seed N --seconds S --trace 0|1 "
                 "--root REPO --out DIR\n";
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            const auto seed = mindful::parseUnsigned(value);
            if (!seed)
                usage("bad --seed " + value);
            options.seed = *seed;
        } else if (flag == "--seconds") {
            const auto seconds = mindful::parseDouble(value);
            if (!seconds || *seconds <= 0.0)
                usage("bad --seconds " + value);
            options.seconds = *seconds;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("bad --trace " + value);
            options.trace = value == "1";
        } else if (flag == "--root") {
            options.root = value;
        } else if (flag == "--out") {
            options.out = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    return options;
}

std::unique_ptr<Workload>
make(const std::string &name, const Context &context)
{
    if (name == "figures")
        return makeFigures(context);
    if (name == "serve_zipf")
        return makeServe(context);
    if (name == "loop_mlp")
        return makeLoop(context, false);
    if (name == "loop_cnn")
        return makeLoop(context, true);
    usage("unknown workload '" + name + "'");
}

/**
 * Set-ups whose median is setup_s: at least kSetupMin, and more while
 * they have taken less than kSetupBudgetS of wall time in all.
 */
constexpr std::size_t kSetupMin = 7;
constexpr std::size_t kSetupMax = 101;
constexpr double kSetupBudgetS = 1.0;

std::string
formatFact(double value)
{
    char text[32];
    std::snprintf(text, sizeof(text), "%.6g", value);
    return text;
}

void
writeMetrics(std::ostream &os, const Metrics &metrics)
{
    os << '{';
    bool first = true;
    char value[64];
    for (const auto &[name, metric] : metrics) {
        if (!first)
            os << ", ";
        first = false;
        mindful::obs::writeJsonEscaped(os, name);
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(metric.value) ? metric.value : 0.0);
        os << ": {\"value\": " << value << ", \"unit\": ";
        mindful::obs::writeJsonEscaped(os, metric.unit);
        os << '}';
    }
    os << '}';
}

void
writeResultFile(const Options &options, const PassStats &checks,
                const Metrics &metrics, const std::string &spans)
{
    const std::string path = options.out + "/" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             "-trace" + (options.trace ? "1" : "0") +
                             ".json";
    std::ofstream os(path);
    if (!os) {
        std::cerr << "perfbench: cannot write " << path << '\n';
        std::exit(1);
    }
    os << "{\"workload\": ";
    mindful::obs::writeJsonEscaped(os, options.workload);
    os << ", \"seed\": " << options.seed
       << ", \"held_out_seed\": " << kHeldOutSeed
       << ", \"seconds\": " << options.seconds
       << ", \"trace\": " << (options.trace ? 1 : 0) << ", \"manifest\": ";
    mindful::obs::RunManifest::current().writeJsonObject(os);
    os << ", \"attempted\": " << checks.attempted
       << ", \"failed\": " << checks.failed << ", \"spans\": ";
    mindful::obs::writeJsonEscaped(os, spans);
    os << ", \"facts\": {";
    bool first = true;
    for (const auto &[name, fact] : checks.facts) {
        os << (first ? "" : ", ");
        first = false;
        mindful::obs::writeJsonEscaped(os, name);
        os << ": ";
        mindful::obs::writeJsonEscaped(os, fact);
    }
    os << "}, \"metrics\": ";
    writeMetrics(os, metrics);
    os << "}\n";
}

void
addChecks(PassStats &into, const PassStats &from)
{
    into.attempted += from.attempted;
    into.failed += from.failed;
    for (const auto &[name, fact] : from.facts)
        into.facts[name] = fact;
}

/** End-to-end run: repeated set-up, one measured pass, checks. */
void
endToEnd(const Options &options, const Context &context, Metrics &metrics,
         PassStats &checks)
{
    std::vector<double> setup_s;
    std::vector<double> setup_wall_s;
    std::unique_ptr<Workload> workload;
    const double setup_start = nowS();
    while (setup_s.size() < kSetupMin ||
           (setup_s.size() < kSetupMax &&
            nowS() - setup_start < kSetupBudgetS)) {
        workload.reset();
        workload = make(options.workload, context);
        const OpClock clock;
        workload->setup();
        setup_s.push_back(cpuS() - clock.cpu);
        setup_wall_s.push_back(nowS() - clock.wall);
    }
    PassStats stats = workload->run(options.seconds, 20, nullptr);
    workload->verify(stats);
    addChecks(checks, stats);

    metrics["setup_s"] = {median(setup_s), "s"};
    const Summary cpu = summarize(stats.opCpuMs);
    metrics["ops_per_cpu_s"] = {cpu.opsPerSecond, "1/s"};
    metrics["op_cpu_ms.p50"] = {cpu.p50Ms, "ms"};
    metrics["op_cpu_ms.p90"] = {cpu.p90Ms, "ms"};

    // The wall-clock view of the same pass goes to the result file
    // only: it includes whatever time the machine's other tenants took.
    const Summary wall = summarize(stats.opMs);
    checks.facts["wall.ops_per_s"] = formatFact(wall.opsPerSecond);
    checks.facts["wall.op_ms.p50"] = formatFact(wall.p50Ms);
    checks.facts["wall.op_ms.p90"] = formatFact(wall.p90Ms);
    checks.facts["wall.setup_s"] = formatFact(median(setup_wall_s));
    checks.facts["setups"] = std::to_string(setup_s.size());
    checks.facts["ops"] = std::to_string(stats.opMs.size());
}

/** Traced run of the workload plus the census of the other paths. */
std::string
traced(const Options &options, const Context &context, unsigned threads,
       Metrics &metrics, PassStats &checks)
{
    std::unique_ptr<Workload> own = make(options.workload, context);
    own->setup();
    Tracer tracer(std::size_t(1) << 20);
    PassStats stats = own->run(options.seconds, 20, &tracer);
    own->verify(stats);
    addChecks(checks, stats);
    own->layerMetrics(tracer, metrics);
    metrics["trace_overhead"] = {traceOverhead(stats), "ratio"};

    // The benchmark's own check that the stage spans account for the
    // traced ops' time ("layer times add up").
    const double covered = coverage(tracer);
    metrics["coverage"] = {covered, "ratio"};
    ++checks.attempted;
    if (covered < kCoverageMin || covered > 1.0) {
        std::cerr << "perfbench: coverage " << covered << " outside ["
                  << kCoverageMin << ", 1]\n";
        ++checks.failed;
    }
    checks.facts["spans_dropped"] = std::to_string(tracer.dropped());

    const std::string span_file =
        options.out + "/spans-" + options.workload + ".csv";
    tracer.writeCsv(span_file);
    own.reset();

    // The other paths' per-layer rows, from a short traced census. The
    // loop rows come from the MLP loop unless the workload is a loop.
    std::vector<std::string> census = {"figures", "serve_zipf"};
    if (options.workload.rfind("loop_", 0) != 0)
        census.push_back("loop_mlp");
    for (const std::string &name : census) {
        if (name == options.workload)
            continue;
        std::unique_ptr<Workload> other = make(name, context);
        other->setup();
        Tracer other_tracer(std::size_t(1) << 18);
        PassStats stats = other->run(kCensusSeconds, 3, &other_tracer);
        other->verify(stats);
        other->layerMetrics(other_tracer, metrics);
        stats.facts.clear();
        addChecks(checks, stats);
    }

    dnnLayerMetrics(options.seed, metrics, checks);
    metrics["host.peak_gops"] = {hostPeakGops(threads), "GOP/s"};
    return span_file;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Options options = parseOptions(argc, argv);
    if (options.workload.empty())
        usage("--workload is required");

    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const unsigned threads = std::min(4u, hw);
    mindful::exec::ThreadPool::setGlobalThreadCount(threads);
    mindful::exec::ThreadPool::global(); // start workers before timing
    mindful::obs::setManifestConfigHash(
        mindful::obs::hashCommandLine(argc, argv));

    const Context context{options.seed, options.root};
    Metrics metrics;
    PassStats checks;
    std::string spans;
    if (options.trace) {
        spans = traced(options, context, threads, metrics, checks);
    } else {
        endToEnd(options, context, metrics, checks);
        metrics["peak_rss_mb"] = {peakRssMb(), "MB"};
    }
    // The one-thread reference passes rebuilt the pool; the manifest
    // names the width of the measured pass.
    mindful::obs::setManifestThreadCount(threads);
    writeResultFile(options, checks, metrics, spans);

    std::ostringstream line;
    line << "{\"correct\": " << (checks.failed == 0 ? "true" : "false")
         << ", \"attempted\": " << checks.attempted
         << ", \"failed\": " << checks.failed << ", \"metrics\": ";
    writeMetrics(line, metrics);
    line << '}';
    std::cout << line.str() << std::endl;
    return 0;
}
