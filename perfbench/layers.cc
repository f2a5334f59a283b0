/**
 * @file
 * The per-layer table of both speech decoders at 256 channels: each
 * MAC-bearing layer run alone through Network::layer(i).forward, its
 * MACs from Network::census, its modelled cycles from
 * SimulationResult::layerCycles, and the simulator's host time and
 * modelled latency beside them.
 */

#include <cstring>

#include "accel/lower_bound.hh"
#include "dnn/models.hh"
#include "workload.hh"

namespace perfbench {

using namespace mindful;

accel::SimulatorConfig
simulatorFor(const dnn::Network &network)
{
    const std::vector<dnn::MacCensus> census = network.census();
    const accel::LowerBoundSolver solver(accel::nangate45());
    const accel::AcceleratorBound bound = solver.solveSharedPool(
        census, period(Frequency::kilohertz(2.0)));
    accel::SimulatorConfig config;
    config.macUnits = bound.feasible ? bound.macUnits : dnn::maxMacOp(census);
    return config;
}

namespace {

constexpr std::uint64_t kChannels = 256;
constexpr int kReps = 7;

/** Median wall time of @p reps calls of @p fn [ms]. */
template <typename Fn>
double
timeMs(int reps, Fn &&fn)
{
    std::vector<double> ms;
    for (int r = 0; r < reps; ++r) {
        const double start = nowS();
        fn();
        ms.push_back((nowS() - start) * 1e3);
    }
    return median(ms);
}

bool
sameBits(const dnn::Tensor &a, const dnn::Tensor &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

void
modelTable(const std::string &tag, dnn::Network network, Rng &rng,
           Metrics &out, PassStats &checks)
{
    network.initializeWeights(rng);
    dnn::Tensor input(network.inputShape());
    for (std::size_t i = 0; i < input.size(); ++i)
        input[i] = static_cast<float>(rng.uniform(-0.2, 0.2));

    const std::string prefix = "dnn." + tag + ".";
    const std::vector<dnn::MacCensus> census = network.census();

    // The simulator's cycles for the same layers, and its own cost.
    const accel::AcceleratorSimulator simulator(simulatorFor(network));
    accel::SimulationResult sim;
    const double sim_ms =
        timeMs(3, [&] { sim = simulator.run(network, input); });

    double layer_sum = 0.0;
    double other = 0.0;
    dnn::Tensor activation = input;
    for (std::size_t i = 0; i < network.layerCount(); ++i) {
        const dnn::Layer &layer = network.layer(i);
        dnn::Tensor next;
        const double ms =
            timeMs(kReps, [&] { next = layer.forward(activation); });
        layer_sum += ms;
        const std::uint64_t macs = census[i].totalMacs();
        if (macs == 0) {
            other += ms;
        } else {
            const std::string name = prefix + "L" + std::to_string(i) + ".";
            out[name + "ms"] = {ms, "ms"};
            out[name + "gops"] = {2.0 * static_cast<double>(macs) /
                                      (ms * 1e6),
                                  "GOP/s"};
            out[name + "sim_cycles"] = {
                static_cast<double>(sim.layerCycles[i]), "cycles"};
        }
        activation = std::move(next);
    }
    dnn::Tensor forward;
    const double forward_ms =
        timeMs(kReps, [&] { forward = network.forward(input); });

    out[prefix + "other_ms"] = {other, "ms"};
    out[prefix + "layer_sum_over_forward"] = {layer_sum / forward_ms,
                                              "ratio"};
    out["accel." + tag + ".sim_latency_us"] = {sim.latency.inMicroseconds(),
                                               "us"};
    out["accel." + tag + ".sim_host_ms"] = {sim_ms, "ms"};

    // Layer by layer, the simulator and the full forward pass must all
    // agree bit for bit; the census must account for every MAC.
    checks.attempted += 1;
    if (!sameBits(activation, forward) || !sameBits(sim.output, forward) ||
        sim.macsExecuted != network.totalMacs())
        ++checks.failed;
}

} // namespace

void
dnnLayerMetrics(std::uint64_t seed, Metrics &out, PassStats &checks)
{
    Rng rng = Rng(seed).fork(3);
    modelTable("mlp", dnn::buildSpeechMlp(kChannels), rng, out, checks);
    modelTable("cnn", dnn::buildSpeechDnCnn(kChannels), rng, out, checks);
}

} // namespace perfbench
