#include "core/dnn_cost.hh"

#include "base/logging.hh"

namespace mindful::core {

DnnFacts
dnnFacts(const dnn::Network &network)
{
    MINDFUL_ASSERT(network.layerCount() > 0, "network must not be empty");
    DnnFacts facts;
    facts.census = network.census();
    facts.outputElements.reserve(network.layerCount());
    for (std::size_t i = 0; i < network.layerCount(); ++i)
        facts.outputElements.push_back(network.outputElements(i));
    facts.totalWeights = network.totalWeights();
    return facts;
}

accel::AcceleratorBound
prefixBound(std::span<const dnn::MacCensus> census, std::size_t layers,
            const accel::MacUnitParams &mac, Time deadline)
{
    MINDFUL_ASSERT(layers <= census.size(),
                   "prefix length exceeds layer count");
    return accel::LowerBoundSolver(mac).solveBest(census.first(layers),
                                                   deadline);
}

DnnCostMemo::DnnCostMemo(ModelBuilder builder) : _builder(std::move(builder))
{
    MINDFUL_ASSERT(_builder != nullptr, "a model builder is required");
}

DnnCostMemo::Entry &
DnnCostMemo::entry(std::uint64_t active_channels)
{
    auto it = _entries.find(active_channels);
    if (it == _entries.end())
        it = _entries
                 .emplace(active_channels,
                          Entry{dnnFacts(_builder(active_channels)), {}})
                 .first;
    return it->second;
}

const DnnFacts &
DnnCostMemo::facts(std::uint64_t active_channels)
{
    return entry(active_channels).facts;
}

accel::AcceleratorBound
DnnCostMemo::bound(std::uint64_t active_channels, std::size_t layers,
                   const accel::MacUnitParams &mac, Time deadline)
{
    Entry &cached = entry(active_channels);
    for (const Bound &b : cached.bounds) {
        if (b.layers == layers && b.macTime == mac.macTime &&
            b.macPower == mac.macPower && b.deadline == deadline)
            return b.bound;
    }
    cached.bounds.push_back({layers, mac.macTime, mac.macPower, deadline,
                             prefixBound(cached.facts.census, layers, mac,
                                         deadline)});
    return cached.bounds.back().bound;
}

} // namespace mindful::core
