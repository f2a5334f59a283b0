/**
 * @file
 * MAC-count lower bound for on-implant DNN accelerators
 * (paper Eqs. 11-15).
 *
 * Real-time execution requires the whole DNN to finish within one
 * sampling period t = 1/f. Two execution disciplines are modelled:
 *
 *  - Shared pool (non-pipelined, Eqs. 11-12): one pool of #MAC_hw
 *    units processes the layers in sequence,
 *
 *        sum_i MAC_seq^i * t_MAC * ceil(#MAC_op^i / #MAC_hw) <= t
 *
 *    with 0 < #MAC_hw <= max_i(#MAC_op^i).
 *
 *  - Pipelined (Eqs. 14-15): each layer owns #MAC_hw^i units and all
 *    layers run concurrently on successive inputs, so only the
 *    slowest stage must meet t; total units = sum_i #MAC_hw^i.
 *
 * The resulting power lower bound is Pcomp = #MAC_hw * P_MAC
 * (Eq. 13) — deliberately architecture-independent: it ignores
 * memory, routing, and control, which the paper shows (Fig. 9) are
 * secondary to PE power at scale.
 */

#ifndef MINDFUL_ACCEL_LOWER_BOUND_HH
#define MINDFUL_ACCEL_LOWER_BOUND_HH

#include <cstdint>
#include <span>
#include <vector>

#include "accel/mac_unit.hh"
#include "base/units.hh"
#include "dnn/mac_census.hh"

namespace mindful::accel {

/** Execution discipline of the accelerator. */
enum class Discipline : std::uint8_t {
    SharedPool, //!< Eqs. 11-12
    Pipelined   //!< Eqs. 14-15
};

/** Result of sizing an accelerator for one DNN. */
struct AcceleratorBound
{
    bool feasible = false;
    Discipline discipline = Discipline::SharedPool;

    /** Total MAC units (0 when infeasible). */
    std::uint64_t macUnits = 0;

    /** Pcomp = macUnits * P_MAC (Eq. 13). */
    Power power;

    /** Worst-case execution latency of one inference. */
    Time latency;

    /** Per-layer unit allocation (pipelined only). */
    std::vector<std::uint64_t> perLayerUnits;
};

/** Solver over a per-layer MAC census. */
class LowerBoundSolver
{
  public:
    explicit LowerBoundSolver(MacUnitParams mac);

    const MacUnitParams &mac() const { return _mac; }

    /** Execution time of the whole census with a shared pool of
     *  @p mac_units units (Eq. 11 left-hand side). */
    Time sharedPoolLatency(std::span<const dnn::MacCensus> census,
                           std::uint64_t mac_units) const;

    /** Size a shared-pool accelerator to deadline @p t (Eqs. 11-12). */
    AcceleratorBound
    solveSharedPool(std::span<const dnn::MacCensus> census, Time t) const;

    /** Size a pipelined accelerator to deadline @p t (Eqs. 14-15). */
    AcceleratorBound
    solvePipelined(std::span<const dnn::MacCensus> census, Time t) const;

    /**
     * Best (lowest-power feasible) of the two disciplines — the
     * paper reports "the best result between a pipelined and a
     * non-pipelined design" for every DNN.
     */
    AcceleratorBound solveBest(std::span<const dnn::MacCensus> census,
                               Time t) const;

  private:
    MacUnitParams _mac;
};

} // namespace mindful::accel

#endif // MINDFUL_ACCEL_LOWER_BOUND_HH
