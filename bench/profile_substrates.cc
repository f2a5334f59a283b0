/**
 * @file
 * Observability smoke: drives the executable substrates (Monte-Carlo
 * QAM channel, accelerator simulator, DNN forward, closed-loop study,
 * experiment runners) once with span tracing and metric recording.
 *
 *   profile_substrates --trace-out trace.json --metrics-out metrics.csv
 *
 * produces a Chrome-trace-loadable JSON (open in Perfetto or
 * chrome://tracing) with nested spans from the comm, accel, dnn, and
 * core subsystems, and a CSV snapshot of every registered metric,
 * which it also prints. The telemetry's own cost is measured by
 * obs_overhead and by perfbench's trace_overhead.
 */

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

} // namespace

int
main(int argc, char **argv)
{
    bench::ObsGuard _obs(argc, argv);
    runCommWorkload();
    runAccelWorkload();
    runCoreWorkload();
    obs::MetricRegistry::global().snapshotTable().print(std::cout);
    return 0;
}
