/**
 * @file
 * Observability harness: drives the executable substrates (Monte-Carlo
 * QAM channel, accelerator simulator, DNN forward, closed-loop study,
 * experiment runners) with span tracing and metric recording, and
 * quantifies the instrumentation's own cost with an A/B measurement.
 *
 *   profile_substrates --trace-out trace.json --metrics-out metrics.csv
 *
 * produces a Chrome-trace-loadable JSON (open in Perfetto or
 * chrome://tracing) with nested spans from the comm, accel, dnn, and
 * core subsystems, and a CSV snapshot of every registered metric.
 *
 * The A/B phases run the identical workload twice: first with the
 * trace collector idle — one relaxed atomic load per would-be span,
 * no name resolved — then with every span streamed (into --trace-out,
 * else a count-only sink). The trace file therefore holds the
 * instrumented phase. The reported overhead percentage is the
 * harness's own regression gate: instrumented hot loops must stay
 * within a few percent of the idle baseline, which they do because
 * all recording happens at call granularity, never per sample.
 */

#include <chrono>
#include <iostream>

#include "accel/simulator.hh"
#include "base/decibel.hh"
#include "base/random.hh"
#include "base/table.hh"
#include "bench_util.hh"
#include "comm/channel_sim.hh"
#include "core/closed_loop.hh"
#include "core/experiments.hh"
#include "core/soc_catalog.hh"
#include "dnn/models.hh"
#include "obs/collector.hh"
#include "obs/metrics.hh"

namespace {

using namespace mindful;

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Monte-Carlo QAM + OOK sweep: the comm hot loop. */
void
runCommWorkload()
{
    MINDFUL_TRACE_SCOPE("bench", "profile.comm");
    comm::AwgnChannelSimulator qam(4);
    for (double ebn0_db : {4.0, 8.0, 12.0})
        qam.measureBer(fromDecibels(ebn0_db), 100000);
    comm::OokChannelSimulator ook;
    for (double ebn0_db : {6.0, 10.0})
        ook.measureBer(fromDecibels(ebn0_db), 200000);
}

/** Accelerator simulator + DNN forward: the accel/dnn hot loop. */
void
runAccelWorkload()
{
    MINDFUL_TRACE_SCOPE("bench", "profile.accel");
    auto net = dnn::buildSpeechMlp(256);
    Rng rng(11);
    net.initializeWeights(rng);
    dnn::Tensor input(net.inputShape());
    accel::AcceleratorSimulator sim({64, accel::nangate45()});
    for (int i = 0; i < 6; ++i) {
        auto result = sim.run(net, input);
        // Cross-check against the functional reference (also exercises
        // the dnn.network.forward span).
        auto reference = net.forward(input);
        if (result.cycles == 0 ||
            reference.size() != result.output.size())
            MINDFUL_PANIC("accelerator/reference disagreement");
    }
}

/** Closed-loop evaluation + an experiment runner: the core paths. */
void
runCoreWorkload()
{
    MINDFUL_TRACE_SCOPE("bench", "profile.core");
    core::ClosedLoopStudy study(
        core::ImplantModel(core::socById(1)),
        core::experiments::speechModelBuilder(
            core::experiments::SpeechModel::Mlp));
    for (std::uint64_t n : {512, 1024, 2048})
        study.evaluate(n);
    core::experiments::fig9Rows();
}

double
timedWorkload()
{
    double start = nowSeconds();
    runCommWorkload();
    runAccelWorkload();
    runCoreWorkload();
    return nowSeconds() - start;
}

} // namespace

int
main(int argc, char **argv)
{
    bool csv = bench::csvOnly(argc, argv);
    auto obs = bench::parseObsFlags(argc, argv);

    // --- Phase A: baseline, collector idle. ---------------------------
    timedWorkload(); // warm caches so A and B see the same machine
    double baseline = timedWorkload();

    // --- Phase B: instrumented, spans streamed. ----------------------
    bench::startTrace(obs);
    double instrumented = timedWorkload();
    const obs::CollectorTotals totals = bench::stopTrace(obs);

    double overhead_pct =
        baseline > 0.0 ? (instrumented - baseline) / baseline * 100.0
                       : 0.0;
    MINDFUL_METRIC_GAUGE("bench.profile.baseline_s", baseline);
    MINDFUL_METRIC_GAUGE("bench.profile.instrumented_s", instrumented);
    MINDFUL_METRIC_GAUGE("bench.profile.overhead_pct", overhead_pct);

    Table ab("Instrumentation A/B: runtime-disabled (the "
             "MINDFUL_OBS_DISABLED fast path) vs tracing enabled");
    ab.setHeader({"phase", "wall time (ms)", "trace events"});
    ab.addRow({"disabled", Table::formatNumber(baseline * 1e3, 2), "0"});
    ab.addRow({"enabled", Table::formatNumber(instrumented * 1e3, 2),
               std::to_string(totals.emitted + totals.dropped)});
    bench::emit(ab, csv);

    Table verdict("Overhead");
    verdict.setHeader({"overhead (%)", "within 5% gate"});
    verdict.addRow({Table::formatNumber(overhead_pct, 2),
                    overhead_pct < 5.0 ? "yes" : "NO"});
    bench::emit(verdict, csv);

    if (!csv) {
        obs::MetricRegistry::global().snapshotTable().print(std::cout);
        std::cout << '\n';
    }

    bench::finalizeObs(obs);
    return 0;
}
