/**
 * @file
 * Functional, cycle-approximate DNN-accelerator simulator.
 *
 * The lower-bound solver (Eqs. 11-15) sizes a PE array analytically;
 * this simulator *executes* a network on that array and reports the
 * cycles, latency, energy and utilization the analytical model
 * predicts — closing the loop between the equations and an actual
 * dataflow:
 *
 *  - Every MAC-bearing layer (dense, convolution) is timed from its
 *    census on weight-stationary PEs, each owning a round-robin share
 *    of the layer's #MAC_op sequences and stepping through their
 *    MAC_seq accumulations like the Fig. 9 architecture (MAC + ReLU +
 *    weight ROM per PE): ceil(#MAC_op / units) * MAC_seq cycles. Its
 *    output comes from the layer's own forward().
 *  - MAC-free layers (pooling, activations, reshapes) execute in the
 *    dataflow FSM and take no PE cycles.
 *
 * The simulated output is bit-identical to Network::forward(), which
 * the integration tests assert.
 */

#ifndef MINDFUL_ACCEL_SIMULATOR_HH
#define MINDFUL_ACCEL_SIMULATOR_HH

#include <cstdint>
#include <vector>

#include "accel/mac_unit.hh"
#include "base/units.hh"
#include "dnn/network.hh"

namespace mindful::accel {

/** Static configuration of the simulated accelerator. */
struct SimulatorConfig
{
    /** PE count (shared pool across layers). */
    std::uint64_t macUnits = 64;

    /** Synthesized MAC characteristics. */
    MacUnitParams mac = nangate45();
};

/** Dynamic results of one simulated inference. */
struct SimulationResult
{
    dnn::Tensor output;

    /** Total PE time-steps (MAC cycles) consumed. */
    std::uint64_t cycles = 0;

    /** cycles * t_MAC. */
    Time latency;

    /** MAC operations actually executed. */
    std::uint64_t macsExecuted = 0;

    /** Energy actually spent in MACs. */
    Energy energy;

    /** macsExecuted / (cycles * macUnits): PE array utilization. */
    double utilization = 0.0;

    /** Per-layer cycle counts. */
    std::vector<std::uint64_t> layerCycles;
};

/** Results of streaming a batch through a pipelined accelerator. */
struct PipelinedResult
{
    /** Per-input network outputs, in order. */
    std::vector<dnn::Tensor> outputs;

    /** Per-stage (layer) latency with its allocated units. */
    std::vector<Time> stageLatency;

    /** Steady-state initiation interval = max stage latency. */
    Time iterationInterval;

    /** Pipeline fill + (N-1) intervals: time to drain the batch. */
    Time makespan;

    std::uint64_t macsExecuted = 0;
    Energy energy;
};

/** Weight-stationary shared-pool accelerator simulator. */
class AcceleratorSimulator
{
  public:
    explicit AcceleratorSimulator(SimulatorConfig config);

    const SimulatorConfig &config() const { return _config; }

    /** Run one inference of @p network on @p input. */
    SimulationResult run(const dnn::Network &network,
                         const dnn::Tensor &input) const;

    /**
     * Stream a batch through a *pipelined* accelerator (Eqs. 14-15):
     * layer i owns @p per_layer_units[i] PEs and all layers run
     * concurrently on successive inputs. Every MAC-bearing layer
     * needs a non-zero allocation (as produced by
     * LowerBoundSolver::solvePipelined). The configured shared-pool
     * size is ignored on this path.
     */
    PipelinedResult
    runPipelined(const dnn::Network &network,
                 const std::vector<dnn::Tensor> &inputs,
                 const std::vector<std::uint64_t> &per_layer_units) const;

  private:
    SimulatorConfig _config;
};

} // namespace mindful::accel

#endif // MINDFUL_ACCEL_SIMULATOR_HH
