#include "accel/simulator.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/special_math.hh"
#include "obs/collector.hh"
#include "obs/metrics.hh"

namespace mindful::accel {

AcceleratorSimulator::AcceleratorSimulator(SimulatorConfig config)
    : _config(config)
{
    MINDFUL_ASSERT(_config.macUnits > 0,
                   "simulator needs at least one MAC unit");
}

SimulationResult
AcceleratorSimulator::run(const dnn::Network &network,
                          const dnn::Tensor &input) const
{
    MINDFUL_TRACE_SPAN(run_span, "accel", "simulator.run");
    run_span.arg("mac_units", _config.macUnits);

    SimulationResult result;
    result.layerCycles.assign(network.layerCount(), 0);

    dnn::Tensor activation = input;
    for (std::size_t i = 0; i < network.layerCount(); ++i) {
        const dnn::Layer &layer = network.layer(i);
        dnn::MacCensus census = layer.census(activation.shape());
        std::uint64_t layer_cycles = 0;

        {
            MINDFUL_TRACE_SPAN(layer_span, "accel",
                               "layer." + layer.name());
            layer_span.arg("index", i).arg("macs", census.totalMacs());

            // Weight-stationary PEs each own a round-robin share of
            // the #MAC_op sequences: ceil(#MAC_op / units) passes of
            // MAC_seq steps.
            if (!census.empty())
                layer_cycles = ceilDiv(census.macOp, _config.macUnits) *
                               census.macSeq;
            activation = layer.forward(activation);
            layer_span.arg("cycles", layer_cycles);
        }

        result.layerCycles[i] = layer_cycles;
        result.cycles += layer_cycles;
        result.macsExecuted += census.totalMacs();

        if (census.totalMacs() > 0) {
            Energy layer_energy = _config.mac.energyPerMac() *
                                  static_cast<double>(census.totalMacs());
            MINDFUL_METRIC_RECORD("accel.layer.energy_pj",
                                  layer_energy.inPicojoules());
            MINDFUL_METRIC_RECORD(
                "accel.layer.latency_us",
                (_config.mac.macTime *
                 static_cast<double>(layer_cycles))
                    .inMicroseconds());
            MINDFUL_METRIC_RECORD(
                "accel.layer.macs",
                static_cast<double>(census.totalMacs()));
        }
    }

    result.output = std::move(activation);
    result.latency = _config.mac.macTime * static_cast<double>(result.cycles);
    result.energy = _config.mac.energyPerMac() *
                    static_cast<double>(result.macsExecuted);
    double capacity = static_cast<double>(result.cycles) *
                      static_cast<double>(_config.macUnits);
    result.utilization =
        capacity > 0.0 ? static_cast<double>(result.macsExecuted) / capacity
                       : 0.0;

    MINDFUL_METRIC_COUNT("accel.sim.runs", 1);
    MINDFUL_METRIC_COUNT("accel.sim.cycles", result.cycles);
    MINDFUL_METRIC_COUNT("accel.sim.macs", result.macsExecuted);
    MINDFUL_METRIC_GAUGE("accel.sim.utilization", result.utilization);
    run_span.arg("cycles", result.cycles)
        .arg("macs", result.macsExecuted)
        .arg("utilization", result.utilization);
    return result;
}

PipelinedResult
AcceleratorSimulator::runPipelined(
    const dnn::Network &network, const std::vector<dnn::Tensor> &inputs,
    const std::vector<std::uint64_t> &per_layer_units) const
{
    MINDFUL_ASSERT(per_layer_units.size() == network.layerCount(),
                   "per-layer unit vector must match the layer count");
    MINDFUL_ASSERT(!inputs.empty(), "pipelined run needs inputs");

    PipelinedResult result;
    result.stageLatency.assign(network.layerCount(), Time::seconds(0.0));

    // Stage latencies from the census and the per-layer allocation.
    auto census = network.census();
    double interval = 0.0;
    double fill = 0.0;
    for (std::size_t i = 0; i < census.size(); ++i) {
        if (census[i].empty())
            continue;
        MINDFUL_ASSERT(per_layer_units[i] > 0,
                       "MAC-bearing layer ", i,
                       " needs a non-zero unit allocation");
        double steps =
            static_cast<double>(census[i].macSeq) *
            static_cast<double>(
                ceilDiv(census[i].macOp, per_layer_units[i]));
        double latency = steps * _config.mac.macTime.inSeconds();
        result.stageLatency[i] = Time::seconds(latency);
        interval = std::max(interval, latency);
        fill += latency;
    }
    result.iterationInterval = Time::seconds(interval);
    result.makespan = Time::seconds(
        fill + interval * static_cast<double>(inputs.size() - 1));

    // Functional execution, input by input (the dataflow is fully
    // deterministic, so per-input results equal the reference pass).
    std::uint64_t macs_per_inference = dnn::totalMacs(census);
    result.outputs.reserve(inputs.size());
    for (const auto &input : inputs)
        result.outputs.push_back(network.forward(input));
    result.macsExecuted =
        macs_per_inference * static_cast<std::uint64_t>(inputs.size());
    result.energy = _config.mac.energyPerMac() *
                    static_cast<double>(result.macsExecuted);
    return result;
}

} // namespace mindful::accel
