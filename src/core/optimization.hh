/**
 * @file
 * Combined optimization study (paper Sec. 6.2, Fig. 12).
 *
 * For a given NI channel count n, the study finds the largest DNN
 * workload that fits the power budget after applying a cumulative
 * sequence of optimizations:
 *
 *  - ChDr (channel dropout): scale the DNN for only n' <= n active
 *    channels (spike-sorting-style data reduction);
 *  - La (layer reduction): partition the DNN at its earliest viable
 *    cut and keep only the prefix on the implant;
 *  - Tech (technology scaling): resynthesize the MAC at 12 nm
 *    (t_MAC = 1 ns, P_MAC = 0.026 mW);
 *  - Dense (channel density): halve the sensing area per channel,
 *    which shrinks the chip — and therefore the power budget.
 *
 * The reported metric is the feasible model size as a fraction of
 * the unoptimized model scaled to the full n.
 */

#ifndef MINDFUL_CORE_OPTIMIZATION_HH
#define MINDFUL_CORE_OPTIMIZATION_HH

#include "core/comp_centric.hh"

namespace mindful::core {

/**
 * Which optimizations are active (applied cumulatively in Fig. 12).
 * Channel dropout is always on: evaluate() always searches n'.
 */
struct OptimizationSteps
{
    bool layerReduction = false;
    bool technologyScaling = false;
    bool channelDensity = false;

    /** The four cumulative Fig. 12 configurations. */
    static OptimizationSteps chDr();
    static OptimizationSteps laChDr();
    static OptimizationSteps laChDrTech();
    static OptimizationSteps laChDrTechDense();

    /** Bar label, e.g. "La+ChDr+Tech". */
    std::string label() const;
};

/** Outcome of one (n, steps) evaluation. */
struct OptimizationOutcome
{
    std::uint64_t channels = 0;
    OptimizationSteps steps;

    /** False when no dropout level fits at all. */
    bool feasible = false;

    /** Largest feasible active-channel count n'. */
    std::uint64_t activeChannels = 0;

    /** weights(model(n')) / weights(model(n)) in [0, 1]. */
    double modelSizeFraction = 0.0;

    /** The winning design point. */
    CompCentricPoint point;
};

/**
 * Fig. 12 evaluator for one implant and one DNN family. The ladders'
 * dropout searches revisit the same active-channel counts, so the
 * study sizes each count once through a DnnCostMemo it owns for its
 * lifetime; evaluate() fills that memo, so a study must not be
 * shared across threads.
 */
class OptimizationStudy
{
  public:
    OptimizationStudy(ImplantModel implant, ModelBuilder builder);

    const ImplantModel &implant() const { return _implant; }

    OptimizationOutcome evaluate(std::uint64_t channels,
                                 const OptimizationSteps &steps);

  private:
    ImplantModel _implant;
    DnnCostMemo _memo;
};

} // namespace mindful::core

#endif // MINDFUL_CORE_OPTIMIZATION_HH
