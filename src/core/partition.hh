/**
 * @file
 * DNN partitioning between implant and wearable (paper Sec. 6.1).
 *
 * The implant may run only a prefix of the DNN and transmit the
 * intermediate activations; the wearable finishes the network. The
 * cut is viable only if the intermediate volume fits the uplink of a
 * 1024-channel communication-centric design — i.e. the layer output
 * must not exceed 1024 elements per inference. The paper picks the
 * *earliest* such layer (fewest on-implant MACs).
 */

#ifndef MINDFUL_CORE_PARTITION_HH
#define MINDFUL_CORE_PARTITION_HH

#include <cstdint>

#include "core/dnn_cost.hh"

namespace mindful::core {

/** A chosen implant/wearable split. */
struct PartitionPlan
{
    /** False when no cut before the last layer satisfies the rate
     *  constraint (the whole DNN must stay on the implant). */
    bool viable = false;

    /** Number of layers kept on the implant (prefix length). */
    std::size_t onImplantLayers = 0;

    /** Elements transmitted per inference at the cut. */
    std::uint64_t cutElements = 0;

    /** Share of the network's MACs remaining on the implant. */
    double onImplantMacFraction = 1.0;
};

/**
 * Earliest viable cut of the network described by @p facts whose
 * transmitted volume is at most @p max_elements per inference.
 * Cutting after the final layer is "no partition" and is never
 * returned as viable.
 */
PartitionPlan earliestViableCut(const DnnFacts &facts,
                                std::uint64_t max_elements);

/** The same walk over the facts of @p network. */
PartitionPlan earliestViableCut(const dnn::Network &network,
                                std::uint64_t max_elements);

} // namespace mindful::core

#endif // MINDFUL_CORE_PARTITION_HH
