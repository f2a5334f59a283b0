#include "core/comp_centric.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/special_math.hh"
#include "core/partition.hh"

namespace mindful::core {

CompCentricModel::CompCentricModel(ImplantModel implant,
                                   ModelBuilder builder,
                                   CompCentricConfig config)
    : _implant(std::move(implant)), _builder(std::move(builder)),
      _config(std::move(config))
{
    MINDFUL_ASSERT(_builder != nullptr, "a model builder is required");
    MINDFUL_ASSERT(_config.sensingAreaScale > 0.0,
                   "sensing area scale must be positive");
}

CompCentricModel::CompCentricModel(ImplantModel implant, DnnCostMemo &memo,
                                   CompCentricConfig config)
    : _implant(std::move(implant)), _memo(&memo),
      _config(std::move(config))
{
    MINDFUL_ASSERT(_config.sensingAreaScale > 0.0,
                   "sensing area scale must be positive");
}

std::uint64_t
CompCentricModel::partitionCutLimit() const
{
    // The cut volume must fit the uplink of a 1024-channel
    // communication-centric design (Sec. 6.1): with one inference per
    // application period, elements * d * f_app <= 1024 * d * f, and
    // the partitioned uplink reuses the 1024-value frame structure of
    // that design, capping the cut at 1024 elements.
    auto rate_limit = static_cast<std::uint64_t>(
        _implant.referenceDataRate().inBitsPerSecond() /
        (static_cast<double>(_implant.sampleBits()) *
         _config.applicationRate.inHertz()));
    return std::min<std::uint64_t>(rate_limit,
                                   _implant.referenceChannels());
}

CompCentricPoint
CompCentricModel::evaluatePrefix(std::uint64_t channels,
                                 std::uint64_t active_channels,
                                 std::size_t on_implant_layers,
                                 std::uint64_t transmitted_elements,
                                 std::span<const dnn::MacCensus> census) const
{
    CompCentricPoint point;
    point.channels = channels;
    point.activeChannels = active_channels;
    point.onImplantLayers = on_implant_layers;
    point.transmittedElements = transmitted_elements;

    // Size the accelerator for the on-implant prefix (Eqs. 11-15);
    // the deadline is one application sampling period.
    const Time deadline = period(_config.applicationRate);
    point.bound = _memo ? _memo->bound(active_channels, on_implant_layers,
                                       _config.mac, deadline)
                        : prefixBound(census, on_implant_layers,
                                      _config.mac, deadline);

    // Power decomposition (Sec. 4.2 with computation-centric
    // non-sensing: digital overhead + accelerator + result uplink).
    point.sensingPower = _implant.sensingPower(channels);
    point.digitalPower = _implant.digitalPower();
    point.computePower = point.bound.power;

    // One result set per inference (per application period), at the
    // implant's constant transceiver energy per bit.
    DataRate uplink =
        _config.applicationRate *
        (static_cast<double>(transmitted_elements) *
         static_cast<double>(_implant.sampleBits()));
    point.commPower = uplink * _implant.commEnergyPerBit();

    point.totalPower = point.sensingPower + point.digitalPower +
                       point.computePower + point.commPower;

    Area total_area =
        _implant.sensingArea(channels) * _config.sensingAreaScale +
        _implant.nonSensingArea();
    point.powerBudget = _implant.powerBudget(total_area);
    point.budgetUtilization = point.totalPower / point.powerBudget;

    point.feasible =
        point.bound.feasible && point.budgetUtilization <= 1.0;
    return point;
}

CompCentricPoint
CompCentricModel::evaluatePartitioned(std::uint64_t channels,
                                      std::uint64_t active_channels,
                                      const DnnFacts &facts) const
{
    CompCentricPoint full = evaluatePrefix(
        channels, active_channels, facts.census.size(),
        facts.outputElements.back(), facts.census);

    PartitionPlan plan = earliestViableCut(facts, partitionCutLimit());
    if (!plan.viable)
        return full;

    CompCentricPoint cut =
        evaluatePrefix(channels, active_channels, plan.onImplantLayers,
                       plan.cutElements, facts.census);

    // Partitioning is opportunistic: keep the split only when it is
    // the better design (offloading never has to be taken).
    if (cut.feasible != full.feasible)
        return cut.feasible ? cut : full;
    return cut.totalPower <= full.totalPower ? cut : full;
}

CompCentricPoint
CompCentricModel::evaluate(std::uint64_t channels,
                           std::uint64_t active_channels,
                           bool partitioned) const
{
    MINDFUL_ASSERT(channels > 0, "channel count must be positive");
    MINDFUL_ASSERT(active_channels > 0 && active_channels <= channels,
                   "active channels must lie in [1, n]");

    if (_memo) {
        const DnnFacts &facts = _memo->facts(active_channels);
        if (partitioned)
            return evaluatePartitioned(channels, active_channels, facts);
        return evaluatePrefix(channels, active_channels,
                              facts.census.size(),
                              facts.outputElements.back(), facts.census);
    }

    dnn::Network network = _builder(active_channels);
    if (partitioned)
        return evaluatePartitioned(channels, active_channels,
                                   dnnFacts(network));
    // The full model needs only the census: no cut volumes to walk.
    const std::vector<dnn::MacCensus> census = network.census();
    return evaluatePrefix(channels, active_channels, census.size(),
                          dnn::elementCount(network.outputShape()), census);
}

std::uint64_t
CompCentricModel::maxChannels(bool partitioned,
                              std::uint64_t max_channels,
                              std::uint64_t step) const
{
    MINDFUL_ASSERT(step > 0, "scan step must be positive");

    // Compute cost grows super-linearly while the budget grows
    // linearly, but depth steps make the boundary slightly ragged —
    // scan and keep the last feasible count.
    std::uint64_t best = 0;
    std::uint64_t misses = 0;
    for (std::uint64_t n = step; n <= max_channels; n += step) {
        if (evaluate(n, n, partitioned).feasible) {
            best = n;
            misses = 0;
        } else if (++misses >= 8 && best > 0) {
            break; // well past the feasibility boundary
        }
    }
    return best;
}

std::uint64_t
CompCentricModel::maxActiveChannels(std::uint64_t channels,
                                    bool partitioned) const
{
    MINDFUL_ASSERT(channels > 0, "channel count must be positive");

    // Feasibility is monotone in n' (a smaller model is never more
    // expensive), so binary search the largest feasible dropout.
    auto feasible = [&](std::int64_t active) {
        return evaluate(channels, static_cast<std::uint64_t>(active),
                        partitioned)
            .feasible;
    };
    std::int64_t best = binarySearchLastTrue(
        1, static_cast<std::int64_t>(channels), feasible);
    return best < 1 ? 0 : static_cast<std::uint64_t>(best);
}

} // namespace mindful::core
