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

/** Which optimizations are active (applied cumulatively in Fig. 12). */
struct OptimizationSteps
{
    bool channelDropout = true; //!< always on in the Fig. 12 bars
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

/**
 * Deterministic channel-dropout mask: the first @p active of
 * @p channels entries are 1, the rest 0 — the same "keep the best n'
 * channels" convention the analytic study uses when it rebuilds a
 * smaller model at n'. Feed to dnn::Network::setInputDropout to run
 * dropout as executed sparsity on the full-width model instead.
 */
std::vector<std::uint8_t> channelDropoutMask(std::uint64_t channels,
                                             std::uint64_t active);

/**
 * Expand a per-channel mask to a per-feature mask for flattened
 * channel-major inputs (e.g. the speech MLP's channels x window
 * layout): each channel entry is repeated @p features_per_channel
 * times.
 */
std::vector<std::uint8_t>
expandChannelMask(const std::vector<std::uint8_t> &mask,
                  std::size_t features_per_channel);

} // namespace mindful::core

#endif // MINDFUL_CORE_OPTIMIZATION_HH
