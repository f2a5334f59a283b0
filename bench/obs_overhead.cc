/**
 * @file
 * Micro-harness for the telemetry tier (obs/collector.hh,
 * obs/handles.hh, obs/metrics.hh): what does one record actually cost?
 *
 * Measures ns/event for the three record primitives and the two
 * by-name wrappers most call sites use —
 *   span_record       obs::HotSpan construct + destruct + ring push
 *   counter_add       CounterHandle::bump through a pre-resolved handle
 *   histogram_record  HistogramHandle::observe (log-bucket index +
 *                     atomics)
 *   metric_count      MINDFUL_METRIC_COUNT, constant name
 *   trace_scope       MINDFUL_TRACE_SCOPE, constant name
 * in two collector states:
 *   enabled           collector streaming (count-only sink): all five
 *   idle              collector stopped: the two span rows only, since
 *                     metrics record the same either way
 *
 * Also runs a deliberate ring-overflow scenario (tiny ring, paused
 * drain) and reports the drop rate plus the conservation check
 * `events == emitted + dropped` — the same invariant the collector
 * stress test asserts.
 *
 * `--json FILE` writes BENCH_obs.json (CI uploads it; the ≤100 ns
 * enabled-record watermark is report-only). Accepts the shared
 * bench_util flags.
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

/**
 * The record primitives and wrappers, timed in the current collector
 * state; the metric rows only when @p metrics is set.
 */
void
measureOps(const std::string &mode, std::uint64_t iters, bool metrics,
           std::vector<Row> &rows)
{
    // Resolve site and handles once, outside the loops.
    auto &registry = obs::MetricRegistry::global();
    const obs::TraceSite site =
        obs::TraceCollector::global().site("bench", "obs.span");
    const obs::CounterHandle counter =
        registry.counter("bench.obs.counter");
    const obs::HistogramHandle histogram =
        registry.histogram("bench.obs.histogram");

    rows.push_back({"span_record", mode,
                    nsPerOp(iters, [&](std::uint64_t i) {
                        obs::HotSpan span(site);
                        span.setArg(i);
                    })});
    if (metrics) {
        rows.push_back({"counter_add", mode,
                        nsPerOp(iters, [&](std::uint64_t) {
                            counter.bump(1);
                        })});
        rows.push_back(
            {"histogram_record", mode,
             nsPerOp(iters, [&](std::uint64_t i) {
                 histogram.observe(0.1 +
                                   0.5 * static_cast<double>(i & 1023));
             })});
        rows.push_back({"metric_count", mode,
                        nsPerOp(iters, [&](std::uint64_t) {
                            MINDFUL_METRIC_COUNT("bench.obs.by_name", 1);
                        })});
    }
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
    const obs::TraceSite site = collector.site("bench", "obs.overflow");
    collector.setRingCapacity(64);
    collector.start(nullptr);
    collector.setDrainPaused(true);
    std::thread producer([&] {
        collector.registerCurrentThread();
        for (std::uint64_t i = 0; i < events; ++i) {
            obs::HotSpan span(site);
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

/** Write the JSON artifact; false when @p path cannot be written. */
bool
writeJson(const std::string &path, const std::vector<Row> &rows,
          const OverflowResult &overflow)
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\n  \"manifest\": ";
    obs::RunManifest::current().writeJsonObject(os);
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
    os << buf << ", \"exact\": " << (overflow.exact() ? "true" : "false")
       << "}\n}\n";
    os.close();
    return !os.fail();
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
                return bench::failed("obs_overhead",
                                     "--json requires an argument");
            json_path = argv[++i];
        } else if (arg.rfind("--json=", 0) == 0) {
            json_path = arg.substr(7);
        }
    }

    const std::uint64_t iters = quick ? 200'000 : 2'000'000;

    auto &collector = obs::TraceCollector::global();

    std::vector<Row> rows;

    // Enabled state: collector streaming into a count-only sink (no
    // formatting cost in the producer, which is exactly the hot-path
    // contract being measured).
    collector.start(nullptr);
    measureOps("enabled", iters, true, rows);
    collector.stop();

    // Idle state: the collector is stopped, so each span costs one
    // relaxed load. Metrics record the same in either state.
    measureOps("idle", iters, false, rows);

    OverflowResult overflow = measureOverflow(quick ? 10'000 : 100'000);

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
                overflow.dropRate(), overflow.exact() ? "yes" : "no");
    for (const auto &row : rows) {
        if (row.mode == std::string("enabled") &&
            row.nsPerEvent > kWatermarkNs) {
            std::printf("WATERMARK: %s %.1f ns/event exceeds %.0f ns "
                        "(report-only)\n",
                        row.op.c_str(), row.nsPerEvent, kWatermarkNs);
        }
    }

    if (!json_path.empty()) {
        if (!writeJson(json_path, rows, overflow))
            return bench::failed("obs_overhead",
                                 "cannot write JSON output " + json_path);
        MINDFUL_INFORM("wrote ", json_path);
    }

    // Conservation is a hard failure, not report-only.
    if (!overflow.exact())
        return bench::failed(
            "obs_overhead",
            "overflow accounting mismatch: " +
                std::to_string(overflow.emitted) + " + " +
                std::to_string(overflow.dropped) +
                " != " + std::to_string(overflow.events));
    return 0;
}
