#include "snn/cost_model.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace mindful::snn {

SnnCostModel::SnnCostModel(SnnCostParams params) : _params(params)
{
    MINDFUL_ASSERT(_params.energyPerSynOp.inJoules() > 0.0,
                   "synaptic-op energy must be positive");
    MINDFUL_ASSERT(_params.leakPerNeuron.inWatts() >= 0.0,
                   "neuron leak must be non-negative");
}

Power
SnnCostModel::power(double synops_per_second, std::size_t neurons) const
{
    MINDFUL_ASSERT(synops_per_second >= 0.0,
                   "synop rate must be non-negative");
    return Power::watts(synops_per_second *
                        _params.energyPerSynOp.inJoules()) +
           _params.leakPerNeuron * static_cast<double>(neurons);
}

std::vector<dnn::MacCensus>
SnnCostModel::expectedCensus(std::size_t inputs,
                             const std::vector<std::size_t> &layer_sizes,
                             double activity, std::size_t steps)
{
    MINDFUL_ASSERT(inputs > 0, "need at least one input");
    MINDFUL_ASSERT(!layer_sizes.empty(), "need at least one layer");
    MINDFUL_ASSERT(activity > 0.0 && activity <= 1.0,
                   "activity must lie in (0, 1]");
    MINDFUL_ASSERT(steps > 0, "window must span at least one step");

    std::vector<dnn::MacCensus> census;
    std::size_t fan_in = inputs;
    for (std::size_t neurons : layer_sizes) {
        auto active_inputs = static_cast<std::uint64_t>(std::llround(
            std::max(1.0, activity * static_cast<double>(fan_in))));
        census.push_back(
            {static_cast<std::uint64_t>(neurons),
             active_inputs * static_cast<std::uint64_t>(steps)});
        fan_in = neurons;
    }
    return census;
}

} // namespace mindful::snn
