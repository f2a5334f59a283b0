/**
 * @file
 * Experiment runners: one per table / figure of the paper, plus the
 * extension tables beyond it.
 *
 * Each runner returns structured results (consumed by the tests) and
 * can render them as a Table. bench/export_figures prints every table
 * and writes it as one CSV under data/; the experiment-to-module map
 * lives in DESIGN.md Sec. 4.
 */

#ifndef MINDFUL_CORE_EXPERIMENTS_HH
#define MINDFUL_CORE_EXPERIMENTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "accel/synthesis_model.hh"
#include "base/table.hh"
#include "core/comm_centric.hh"
#include "core/optimization.hh"
#include "core/qam_study.hh"

namespace mindful::core::experiments {

// --- Table 1 ---------------------------------------------------------

/** The published-design summary exactly as catalogued. */
Table table1();

// --- Fig. 4: designs scaled to 1024 channels -------------------------

struct Fig4Row
{
    ScaledDesignPoint point;
    Power budget;
    bool safe = false;
};

std::vector<Fig4Row> fig4Rows();
Table fig4Table();

// --- Figs. 5-6: communication-centric OOK scaling --------------------

struct CommSweepSeries
{
    int socId = 0;
    std::string name;
    CommScalingStrategy strategy;
    std::vector<CommCentricPoint> points;
};

/** Default Fig. 5 sweep: n = 1024, 2048, 4096, 8192. */
std::vector<std::uint64_t> fig5Channels();

/** Default Fig. 6 sweep: n = 1024..8192 step 1024. */
std::vector<std::uint64_t> fig6Channels();

std::vector<CommSweepSeries>
commCentricSweep(CommScalingStrategy strategy,
                 const std::vector<std::uint64_t> &channels);

Table fig5Table(CommScalingStrategy strategy);
Table fig6Table(CommScalingStrategy strategy);

// --- Fig. 7: minimum QAM efficiency ----------------------------------

struct QamSeries
{
    int socId = 0;
    std::string name;
    std::vector<QamPoint> points;
};

/** Default Fig. 7 sweep: n = 1024..6144 step 256. */
std::vector<std::uint64_t> fig7Channels();

std::vector<QamSeries>
qamSweep(const std::vector<std::uint64_t> &channels,
         QamStudyConfig config = {});

/** Average (over wireless SoCs) max channel count at efficiency eta. */
struct QamSummary
{
    double efficiency = 0.0;
    double averageMaxChannels = 0.0;

    /** averageMaxChannels / 1024 — the paper's "2x / 4x" statements. */
    double averageGain = 0.0;
};

QamSummary qamSummary(double efficiency, QamStudyConfig config = {});

Table fig7Table();

/** qamSummary() at 13, 15, 20, 50 and 100% efficiency. */
Table fig7SummaryTable();

// --- Fig. 9: accelerator synthesis study -----------------------------

struct Fig9Row
{
    int design = 0;
    accel::AcceleratorDesignPoint point;
    accel::SynthesisEstimate estimate;
};

std::vector<Fig9Row> fig9Rows();
Table fig9Table();

// --- Figs. 10-12: computation-centric studies -------------------------

/** The two evaluated decoder families (Sec. 5.3). */
enum class SpeechModel : std::uint8_t { Mlp, DnCnn };

std::string toString(SpeechModel model);

/** Builder producing the scaled model for a channel count. */
ModelBuilder speechModelBuilder(SpeechModel model);

struct DnnPowerSeries
{
    int socId = 0;
    std::string name;
    SpeechModel model;
    std::vector<CompCentricPoint> points;

    /** Largest feasible channel count for this SoC/model. */
    std::uint64_t maxChannels = 0;
};

/** Default Fig. 10 sweep: n = 1024..7168 step 1024. */
std::vector<std::uint64_t> fig10Channels();

std::vector<DnnPowerSeries>
dnnPowerSweep(SpeechModel model,
              const std::vector<std::uint64_t> &channels);

Table fig10Table(SpeechModel model);

// --- Fig. 11: DNN partitioning gains ----------------------------------

struct PartitionGainRow
{
    int socId = 0;
    std::string name;
    SpeechModel model;
    std::uint64_t maxChannelsFull = 0;
    std::uint64_t maxChannelsPartitioned = 0;

    /** maxPartitioned / maxFull (>= 1 when partitioning helps). */
    double gain = 1.0;
};

std::vector<PartitionGainRow> partitionGains(SpeechModel model);
Table fig11Table();

// --- Fig. 12: combined optimizations ----------------------------------

struct OptimizationSeries
{
    int socId = 0;
    std::string name;
    std::uint64_t channels = 0;

    /** Outcomes in Fig. 12 bar order:
     *  ChDr, La+ChDr, La+ChDr+Tech, La+ChDr+Tech+Dense. */
    std::vector<OptimizationOutcome> outcomes;
};

/** Default Fig. 12 channel counts: 2048, 4096, 8192. */
std::vector<std::uint64_t> fig12Channels();

std::vector<OptimizationSeries>
optimizationSweep(int soc_id, SpeechModel model = SpeechModel::Mlp);

Table fig12Table(int soc_id);

// --- Extensions beyond the paper --------------------------------------

/** Decoder cost at one channel count (MACs per inference/iteration). */
struct WorkloadCostRow
{
    std::uint64_t channels = 0;
    std::uint64_t mlpMacs = 0;
    std::uint64_t dnCnnMacs = 0;
    std::uint64_t kalmanMacs = 0;
};

/** MLP, DN-CNN and Kalman cost at n = 1024, 2048, 4096, 8192. */
std::vector<WorkloadCostRow> workloadCostRows();
Table workloadCostTable();

/**
 * Dense MAC lower bound vs event-driven SNN power for an MLP-like
 * topology at the 2 kHz deadline (paper Sec. 7 future work).
 */
Table snnPowerTable();

/** Max feasible channels per SoC for the MLP, DN-CNN and Kalman. */
Table workloadFrontierTable();

/**
 * Which ceiling binds under high-margin scaling: the thermal budget
 * (B), the SAR-limited wireless power link (W), or neither (-).
 */
Table powerCeilingTable();

/** Spike-event vs raw streaming for one SoC. */
struct EventStreamingRow
{
    int socId = 0;
    std::string name;
    DataRate eventUplink; //!< at 4096 channels
    DataRate rawUplink;   //!< at 4096 channels

    /** Largest safe channel counts, searched up to 65536. */
    std::uint64_t eventMaxChannels = 0;
    std::uint64_t rawMaxChannels = 0;
};

std::vector<EventStreamingRow> eventStreamingRows();
Table eventStreamingTable();

/**
 * Fewest implants (SCALO-style partitioning) that stream 8192 and
 * 16384 channels under high-margin scaling, and their cost.
 */
Table multiImplantTable();

/** Closed-loop vs open-loop MLP frontier for one SoC. */
struct ClosedLoopRow
{
    int socId = 0;
    std::string name;
    std::uint64_t openLoopMaxChannels = 0;
    std::uint64_t closedLoopMaxChannels = 0;
    Time loopLatency; //!< at 1024 channels

    /** Reaction deadline / loop latency at 1024 channels. */
    double deadlineMargin = 0.0;

    /** What fails first 64 channels past the closed-loop frontier:
     *  "power budget", "reaction deadline", "RT sizing", or "-". */
    std::string binding;
};

std::vector<ClosedLoopRow> closedLoopRows();
Table closedLoopTable();

/** The three headline results re-derived under one perturbation. */
struct SensitivityRow
{
    std::string scenario;

    /** H1: high-margin OOK exceeds the budget on every wireless SoC. */
    bool h1AlwaysCrosses = false;

    /** H2: average QAM reach / 1024 at 20% and 100% efficiency. */
    double h2GainAt20 = 0.0;
    double h2GainAt100 = 0.0;

    /** H3: MLP feasibility at 1024 channels, SoC 1..8 ('F' or '.'). */
    std::string h3Pattern;
};

/**
 * The baseline and five perturbations of the calibrated constants
 * (DESIGN.md Sec. 3 item 3): sensing power share +-20%, sensing area
 * share +20%, comm share of non-sensing 0.6, receiver NF +3 dB.
 */
std::vector<SensitivityRow> sensitivityRows();
Table sensitivityTable();

} // namespace mindful::core::experiments

#endif // MINDFUL_CORE_EXPERIMENTS_HH
