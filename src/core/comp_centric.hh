/**
 * @file
 * Computation-centric architectures with on-implant DNNs
 * (paper Secs. 5.3 and 6, Figs. 10-12).
 *
 * The implant runs a DNN (or a prefix of one, Sec. 6.1) over the
 * incoming neural data within the real-time deadline t = 1/f, then
 * transmits only the (much smaller) result. The total power is
 *
 *     Psoc(n) = Psensing(n) + Pdigital + Pcomp + Pcomm(n_out)
 *
 * with Pcomp the Eq. 13 MAC lower bound and Pcomm the constant-Eb
 * OOK cost of the transmitted volume. The budget uses the frozen
 * non-sensing area plus linearly-growing sensing area (optionally
 * densified, Sec. 6.2).
 */

#ifndef MINDFUL_CORE_COMP_CENTRIC_HH
#define MINDFUL_CORE_COMP_CENTRIC_HH

#include "core/dnn_cost.hh"
#include "core/scaling.hh"

namespace mindful::core {

/** Knobs shared by the Fig. 10-12 studies. */
struct CompCentricConfig
{
    /** MAC technology (45 nm default; 12 nm for the Tech step). */
    accel::MacUnitParams mac = accel::nangate45();

    /** Sensing-area-per-channel multiplier (0.5 for the Dense step:
     *  doubled channel density shrinks the chip and the budget). */
    double sensingAreaScale = 1.0;

    /**
     * Sampling rate the decoder DNN was designed for (Berezutskaya
     * et al.: ECoG at 2 kHz). One inference must complete per
     * application sampling period — the real-time deadline t of
     * Eqs. 11/14 — and one result set is transmitted per inference.
     * The deadline follows the application, not the implant's raw
     * ADC rate: the DNN consumes data at its design rate regardless
     * of how fast the front-end oversamples.
     */
    Frequency applicationRate = Frequency::kilohertz(2.0);
};

/** One evaluated computation-centric design point. */
struct CompCentricPoint
{
    std::uint64_t channels = 0;       //!< NI channels n
    std::uint64_t activeChannels = 0; //!< n' the DNN is scaled for
    std::size_t onImplantLayers = 0;  //!< DNN prefix on the implant

    /** Accelerator sizing (Eqs. 11-15). */
    accel::AcceleratorBound bound;

    Power sensingPower;
    Power digitalPower;
    Power computePower;
    Power commPower;
    Power totalPower;
    Power powerBudget;

    double budgetUtilization = 0.0;

    /** Values transmitted per inference (labels, or cut activations). */
    std::uint64_t transmittedElements = 0;

    /** Accelerator meets the deadline AND the SoC meets the budget. */
    bool feasible = false;
};

/** Fig. 10-12 evaluator for one implant and one DNN family. */
class CompCentricModel
{
  public:
    /** Build and size the DNN afresh for every evaluation. */
    CompCentricModel(ImplantModel implant, ModelBuilder builder,
                     CompCentricConfig config = {});

    /**
     * Take the DNN side from @p memo, which the caller owns, must
     * keep alive for this model's lifetime and must not share
     * across threads.
     */
    CompCentricModel(ImplantModel implant, DnnCostMemo &memo,
                     CompCentricConfig config = {});

    const ImplantModel &implant() const { return _implant; }
    const CompCentricConfig &config() const { return _config; }

    /**
     * Evaluate n channels with the DNN scaled for @p active channels
     * (channel dropout; pass @p active == n for no dropout) and,
     * optionally, partitioned to its earliest viable cut.
     */
    CompCentricPoint evaluate(std::uint64_t channels,
                              std::uint64_t active_channels,
                              bool partitioned = false) const;

    /** Convenience: no dropout, optional partitioning. */
    CompCentricPoint
    evaluate(std::uint64_t channels, bool partitioned = false) const
    {
        return evaluate(channels, channels, partitioned);
    }

    /**
     * Largest n with a feasible full-model (no dropout) design,
     * scanned at @p step granularity. The scan stops 8 infeasible
     * steps past the last feasible count; it returns 0 only when no
     * scanned count is feasible, and then runs all the way to
     * @p max_channels.
     */
    std::uint64_t maxChannels(bool partitioned = false,
                              std::uint64_t max_channels = 16384,
                              std::uint64_t step = 32) const;

    /**
     * Largest dropout count n' <= n making the design feasible
     * (Sec. 6.2 ChDr); 0 when none is.
     */
    std::uint64_t maxActiveChannels(std::uint64_t channels,
                                    bool partitioned = false) const;

    /** Largest intermediate volume a partition cut may transmit. */
    std::uint64_t partitionCutLimit() const;

  private:
    CompCentricPoint
    evaluatePrefix(std::uint64_t channels, std::uint64_t active_channels,
                   std::size_t on_implant_layers,
                   std::uint64_t transmitted_elements,
                   std::span<const dnn::MacCensus> census) const;

    /** The better of the full model and its earliest viable cut. */
    CompCentricPoint evaluatePartitioned(std::uint64_t channels,
                                         std::uint64_t active_channels,
                                         const DnnFacts &facts) const;

    ImplantModel _implant;
    ModelBuilder _builder;        //!< unused when _memo is set
    DnnCostMemo *_memo = nullptr; //!< not owned
    CompCentricConfig _config;
};

} // namespace mindful::core

#endif // MINDFUL_CORE_COMP_CENTRIC_HH
