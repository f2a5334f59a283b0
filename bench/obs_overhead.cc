/**
 * @file
 * Micro-harness for the telemetry tier (obs/collector.hh,
 * obs/handles.hh, obs/metrics.hh): what does one record actually cost?
 *
 * Measures ns/event for the three record primitives and the two
 * by-name wrappers most call sites use —
 *   span_record       MINDFUL_HOT_SPAN construct + destruct + ring push
 *   counter_add       MINDFUL_HOT_COUNT through a pre-resolved handle
 *   histogram_record  MINDFUL_HOT_RECORD (log-bucket index + atomics)
 *   metric_count      MINDFUL_METRIC_COUNT, constant name
 *   trace_scope       MINDFUL_TRACE_SCOPE, constant name
 * in two runtime states:
 *   enabled           collector streaming (count-only sink), registry on
 *   disabled          collector stopped, registry runtime-disabled
 * The twin target obs_overhead_disabled compiles this same file with
 * MINDFUL_OBS_DISABLED, so its rows (mode "compiled_out") measure the
 * macros' vanished form.
 *
 * Also runs a deliberate ring-overflow scenario (tiny ring, paused
 * drain) and reports the drop rate plus the conservation check
 * `events == emitted + dropped` — the same invariant the collector
 * stress test asserts.
 *
 * `--json FILE` writes BENCH_obs.json (CI uploads it; the ≤100 ns
 * enabled-record watermark is report-only, mirroring the kernel
 * regression harness). Accepts the shared bench_util flags.
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "obs/collector.hh"
#include "obs/handles.hh"
#include "obs/json.hh"
#include "obs/manifest.hh"
#include "obs/metrics.hh"

namespace {

using namespace mindful;

/** Report-only watermark for enabled-state records (docs). */
constexpr double kWatermarkNs = 100.0;

struct Row
{
    std::string op;
    std::string mode;
    double nsPerEvent = 0.0;
};

struct OverflowResult
{
    std::uint64_t events = 0;
    std::uint64_t emitted = 0;
    std::uint64_t dropped = 0;

    bool exact() const { return emitted + dropped == events; }
    double
    dropRate() const
    {
        return events ? static_cast<double>(dropped) /
                            static_cast<double>(events)
                      : 0.0;
    }
};

template <typename Fn>
double
nsPerOp(std::uint64_t iters, Fn &&fn)
{
    auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < iters; ++i)
        fn(i);
    auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(stop - start)
               .count() /
           static_cast<double>(iters);
}

/** The record primitives and wrappers, timed in the current state. */
void
measureOps(const std::string &mode, std::uint64_t iters,
           std::vector<Row> &rows)
{
    // Resolve site and handles once, outside the loops.
    // ([[maybe_unused]]: the compiled-out twin erases every use.)
    auto &collector = obs::TraceCollector::global();
    auto &registry = obs::MetricRegistry::global();
    [[maybe_unused]] const obs::TraceSite site =
        collector.site("bench", "obs.span");
    [[maybe_unused]] const obs::CounterHandle counter =
        registry.counter("bench.obs.counter");
    [[maybe_unused]] const obs::HistogramHandle histogram =
        registry.histogram("bench.obs.histogram");

    rows.push_back({"span_record", mode,
                    nsPerOp(iters, [&]([[maybe_unused]] std::uint64_t i) {
                        MINDFUL_HOT_SPAN(span, site);
                        span.setArg(i);
                    })});
    rows.push_back({"counter_add", mode,
                    nsPerOp(iters, [&](std::uint64_t) {
                        MINDFUL_HOT_COUNT(counter, 1);
                    })});
    rows.push_back({"histogram_record", mode,
                    nsPerOp(iters, [&]([[maybe_unused]] std::uint64_t i) {
                        MINDFUL_HOT_RECORD(
                            histogram,
                            0.1 + 0.5 * static_cast<double>(i & 1023));
                    })});
    rows.push_back({"metric_count", mode,
                    nsPerOp(iters, [&](std::uint64_t) {
                        MINDFUL_METRIC_COUNT("bench.obs.by_name", 1);
                    })});
    rows.push_back({"trace_scope", mode,
                    nsPerOp(iters, [&](std::uint64_t) {
                        MINDFUL_TRACE_SCOPE("bench", "obs.scope");
                    })});
}

/** Tiny ring + paused drain: every slot beyond capacity must drop. */
OverflowResult
measureOverflow(std::uint64_t events)
{
    auto &collector = obs::TraceCollector::global();
    [[maybe_unused]] const obs::TraceSite site =
        collector.site("bench", "obs.overflow");
    collector.setRingCapacity(64);
    collector.start(nullptr);
    collector.setDrainPaused(true);
    std::thread producer([&] {
        collector.registerCurrentThread();
        for (std::uint64_t i = 0; i < events; ++i) {
            MINDFUL_HOT_SPAN(span, site);
            span.setArg(i);
        }
    });
    producer.join(); // producers quiesce before stop: totals are exact
    collector.setDrainPaused(false);
    obs::CollectorTotals totals = collector.stop();
    collector.setRingCapacity(obs::kDefaultRingSlots);

    OverflowResult result;
    result.events = events;
    result.emitted = totals.emitted;
    result.dropped = totals.dropped;
    return result;
}

void
writeJson(const std::string &path, bool compiled_out,
          const std::vector<Row> &rows, const OverflowResult &overflow,
          bool accounting_ok)
{
    std::ofstream os(path);
    if (!os)
        MINDFUL_FATAL("cannot open JSON output ", path);
    os << "{\n  \"manifest\": ";
    obs::RunManifest::current().writeJsonObject(os);
    os << ",\n  \"compiled_out\": " << (compiled_out ? "true" : "false");
    os << ",\n  \"watermark_ns\": " << kWatermarkNs;
    os << ",\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        os << "    {\"op\": ";
        obs::writeJsonEscaped(os, rows[i].op);
        os << ", \"mode\": ";
        obs::writeJsonEscaped(os, rows[i].mode);
        char buf[64];
        std::snprintf(buf, sizeof(buf), ", \"ns_per_event\": %.2f}",
                      rows[i].nsPerEvent);
        os << buf << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"overflow\": {\"events\": " << overflow.events
       << ", \"emitted\": " << overflow.emitted
       << ", \"dropped\": " << overflow.dropped << ", \"drop_rate\": ";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", overflow.dropRate());
    os << buf << ", \"exact\": " << (accounting_ok ? "true" : "false")
       << "}\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bench::ObsGuard _obs(argc, argv);
    bool quick = false;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--quick") {
            quick = true;
        } else if (arg == "--json") {
            if (i + 1 >= argc)
                MINDFUL_FATAL("--json requires an argument");
            json_path = argv[++i];
        } else if (arg.rfind("--json=", 0) == 0) {
            json_path = arg.substr(7);
        }
    }

#ifdef MINDFUL_OBS_DISABLED
    const bool compiled_out = true;
    const char *enabled_mode = "compiled_out";
    const char *disabled_mode = "compiled_out_gated";
#else
    const bool compiled_out = false;
    const char *enabled_mode = "enabled";
    const char *disabled_mode = "disabled";
#endif
    const std::uint64_t iters = quick ? 200'000 : 2'000'000;

    auto &collector = obs::TraceCollector::global();
    auto &registry = obs::MetricRegistry::global();

    std::vector<Row> rows;

    // Enabled state: registry on, collector streaming into a
    // count-only sink (no formatting cost in the producer, which is
    // exactly the hot-path contract being measured).
    registry.setEnabled(true);
    collector.start(nullptr);
    measureOps(enabled_mode, iters, rows);
    collector.stop();

    // Disabled state: the record sites stay compiled in; each should
    // cost one or two relaxed loads.
    registry.setEnabled(false);
    measureOps(disabled_mode, iters, rows);
    registry.setEnabled(true);

    OverflowResult overflow = measureOverflow(quick ? 10'000 : 100'000);
#ifdef MINDFUL_OBS_DISABLED
    // Compiled out, the producer loop records nothing at all: the
    // correct accounting is zero emitted AND zero dropped.
    const bool accounting_ok =
        overflow.emitted == 0 && overflow.dropped == 0;
#else
    const bool accounting_ok = overflow.exact();
#endif

    Table table("obs_overhead");
    table.setHeader({"op", "mode", "ns_per_event"});
    for (const auto &row : rows)
        table.addRow({row.op, row.mode,
                      Table::formatNumber(row.nsPerEvent, 4)});
    bench::emit(table, bench::csvOnly(argc, argv));
    std::printf("overflow: events=%llu emitted=%llu dropped=%llu "
                "drop_rate=%.4f exact=%s\n",
                static_cast<unsigned long long>(overflow.events),
                static_cast<unsigned long long>(overflow.emitted),
                static_cast<unsigned long long>(overflow.dropped),
                overflow.dropRate(), accounting_ok ? "yes" : "no");
    for (const auto &row : rows) {
        if (row.mode == std::string("enabled") &&
            row.nsPerEvent > kWatermarkNs) {
            std::printf("WATERMARK: %s %.1f ns/event exceeds %.0f ns "
                        "(report-only)\n",
                        row.op.c_str(), row.nsPerEvent, kWatermarkNs);
        }
    }

    if (!json_path.empty()) {
        writeJson(json_path, compiled_out, rows, overflow, accounting_ok);
        MINDFUL_INFORM("wrote ", json_path);
    }

    // Conservation is a hard failure, not report-only.
    if (!accounting_ok)
        MINDFUL_FATAL("overflow accounting mismatch: ",
                      overflow.emitted, " + ", overflow.dropped,
                      " != ", overflow.events);
    return 0;
}
