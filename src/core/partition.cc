#include "core/partition.hh"

#include "base/logging.hh"

namespace mindful::core {

PartitionPlan
earliestViableCut(const DnnFacts &facts, std::uint64_t max_elements)
{
    MINDFUL_ASSERT(max_elements > 0, "cut volume limit must be positive");
    MINDFUL_ASSERT(!facts.census.empty(), "network must not be empty");
    MINDFUL_ASSERT(facts.outputElements.size() == facts.census.size(),
                   "one output volume per layer is required");

    const std::size_t layers = facts.census.size();
    PartitionPlan plan;
    plan.onImplantLayers = layers;

    std::uint64_t total_macs = dnn::totalMacs(facts.census);

    std::uint64_t prefix_macs = 0;
    for (std::size_t i = 0; i + 1 < layers; ++i) {
        prefix_macs += facts.census[i].totalMacs();
        if (facts.outputElements[i] <= max_elements) {
            // A zero-MAC prefix would leave the wearable the whole
            // network, which is the communication-centric case, not
            // a partition; require at least one MAC on the implant.
            if (prefix_macs == 0)
                continue;
            plan.viable = true;
            plan.onImplantLayers = i + 1;
            plan.cutElements = facts.outputElements[i];
            plan.onImplantMacFraction =
                total_macs
                    ? static_cast<double>(prefix_macs) /
                          static_cast<double>(total_macs)
                    : 1.0;
            return plan;
        }
    }
    return plan;
}

PartitionPlan
earliestViableCut(const dnn::Network &network, std::uint64_t max_elements)
{
    return earliestViableCut(dnnFacts(network), max_elements);
}

} // namespace mindful::core
