/**
 * @file
 * The interface each benchmark workload implements, and the factory
 * functions of the four workloads (figures.cc, serve.cc, loop.cc).
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>

#include "accel/simulator.hh"
#include "support.hh"

namespace perfbench {

/** Inputs shared by every workload of one run. */
struct Context
{
    std::uint64_t seed = 0;
    std::string repoRoot; //!< holds data/ (the committed figure CSVs)
};

/**
 * One end-to-end path. The constructor and setup() are the set-up the
 * benchmark times; run() is the measured part; verify() runs reference
 * computations outside the measured part.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Everything a user pays once before the first operation. */
    virtual void setup() = 0;

    /**
     * Run operations back to back for @p seconds of wall time (at
     * least @p min_ops of them), recording spans into @p tracer when
     * it is non-null.
     */
    virtual PassStats run(double seconds, std::size_t min_ops,
                          Tracer *tracer) = 0;

    /** Reference checks over the last run(); adds to stats.failed. */
    virtual void verify(PassStats &stats) = 0;

    /** Per-layer metrics of the last traced run(). */
    virtual void layerMetrics(const Tracer &tracer, Metrics &out) = 0;
};

std::unique_ptr<Workload> makeFigures(const Context &context);
std::unique_ptr<Workload> makeServe(const Context &context);

/** @p cnn selects the DN-CNN decoder instead of the speech MLP. */
std::unique_ptr<Workload> makeLoop(const Context &context, bool cnn);

/**
 * The shared-pool accelerator the lower-bound solver sizes for
 * @p network at the 2 kHz deadline (the Eq. 12 cap when no pool size
 * meets it).
 */
mindful::accel::SimulatorConfig
simulatorFor(const mindful::dnn::Network &network);

/** The per-layer DNN, accelerator and host-peak table (layers.cc). */
void dnnLayerMetrics(std::uint64_t seed, Metrics &out, PassStats &checks);

/** Register-only mul+add peak over @p threads threads [GOP/s]. */
double hostPeakGops(unsigned threads);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH
