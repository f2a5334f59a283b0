/**
 * @file
 * Event-driven power model for on-implant SNNs.
 *
 * An SNN accelerator spends energy per *synaptic event* (one weight
 * fetch + accumulate when a pre-synaptic spike arrives) plus a static
 * leak per instantiated neuron, so its power follows measured spike
 * activity instead of layer dimensions:
 *
 *     P = synops/s * E_synop + neurons * P_leak
 *
 * Coefficients default to digital neuromorphic-core values at the
 * same 45 nm class as the paper's MAC (a synaptic accumulate is
 * cheaper than a full 8-bit MAC). The census adapter expresses an
 * expected-activity SNN as Eq. 10 stages so the framework's
 * lower-bound machinery can compare it directly with the DNNs.
 */

#ifndef MINDFUL_SNN_COST_MODEL_HH
#define MINDFUL_SNN_COST_MODEL_HH

#include <cstddef>
#include <vector>

#include "base/units.hh"
#include "dnn/mac_census.hh"

namespace mindful::snn {

/** Accelerator coefficients for the event-driven cost law. */
struct SnnCostParams
{
    /** Energy per synaptic operation (fetch + accumulate). */
    Energy energyPerSynOp = Energy::picojoules(0.03);

    /** Static power per instantiated neuron circuit. */
    Power leakPerNeuron = Power::nanowatts(15.0);
};

/** Event-driven SNN power model. */
class SnnCostModel
{
  public:
    explicit SnnCostModel(SnnCostParams params = {});

    const SnnCostParams &params() const { return _params; }

    /** Power for a measured activity level. */
    Power power(double synops_per_second, std::size_t neurons) const;

    /**
     * Expected-activity census of one inference window: each layer
     * contributes #MAC_op = its neuron count and MAC_seq = the
     * expected number of *active* inputs per step times the window
     * steps (sparse accumulation instead of dense MACs).
     *
     * @param layer_sizes neurons per layer (front = first hidden).
     * @param inputs network input count.
     * @param activity fraction of inputs/neurons spiking per step.
     * @param steps time steps per inference window.
     */
    static std::vector<dnn::MacCensus>
    expectedCensus(std::size_t inputs,
                   const std::vector<std::size_t> &layer_sizes,
                   double activity, std::size_t steps);

  private:
    SnnCostParams _params;
};

} // namespace mindful::snn

#endif // MINDFUL_SNN_COST_MODEL_HH
