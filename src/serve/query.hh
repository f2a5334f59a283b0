/**
 * @file
 * The design-space query protocol of `mindful_serve`.
 *
 * A DesignQuery is one "what SoC fits this patient?" request: a
 * published implant platform (Table 1 row), a target channel count,
 * the on-implant workload class, and the knobs each class reacts to
 * (modulation strategy, MAC process node, partitioning, an uplink
 * cap, the thermal envelope). A QueryResult is the framework's
 * verdict: the Sec. 4 power/area decomposition, the Eq. 3 budget
 * check, the Sec. 5.3 real-time deadline check, and an overall
 * feasible bit.
 *
 * Both structs are flat trivially-copyable records — no strings, no
 * heap — so a cached result is returned by plain struct copy on the
 * lock-free hot path (cache.hh) and two evaluations of the same
 * canonical query are bit-for-bit identical.
 *
 * canonicalize() folds every "means the same thing" spelling of a
 * request onto one representative (defaults resolved, knobs the
 * workload class ignores reset), and queryKey() hashes exactly that
 * canonical form — so two equal requests built differently share one
 * memo-cache entry (docs/serving.md).
 */

#ifndef MINDFUL_SERVE_QUERY_HH
#define MINDFUL_SERVE_QUERY_HH

#include <cstdint>
#include <string>
#include <type_traits>

#include "core/comm_centric.hh"

namespace mindful::serve {

/** What the implant computes on-device (DESIGN.md Sec. 4 map). */
enum class WorkloadClass : std::uint8_t {
    RawStreaming,   //!< stream every sample, OOK (Sec. 5.1)
    QamStreaming,   //!< stream every sample, M-QAM (Sec. 5.2)
    EventStreaming, //!< detect spikes, stream events (Sec. 2.3)
    DnnMlp,         //!< on-implant MLP decoder (Sec. 5.3)
    DnnCnn,         //!< on-implant DN-CNN decoder (Sec. 5.3)
    Kalman,         //!< on-implant Kalman decoder (workloads.hh)
};

/** MAC synthesis node for the compute-bearing workloads (Sec. 6.2). */
enum class ProcessNode : std::uint8_t {
    Node45nm, //!< NanGate 45 nm (default evaluation node)
    Node12nm, //!< the paper's technology-scaling optimization
};

/** Largest channel count a query may ask for (bounds per-query work). */
inline constexpr std::uint64_t kMaxQueryChannels = 1u << 20;

/** Default M-QAM implementation efficiency assumed when unset. */
inline constexpr double kDefaultQamEfficiency = 0.25;

/** One design-space request. Plain data; field 0 means "default". */
struct DesignQuery
{
    int socId = 1;               //!< Table 1 row id
    std::uint64_t channels = 0;  //!< 0 = the 1024-channel standard
    WorkloadClass workload = WorkloadClass::RawStreaming;

    /** Raw-streaming scaling hypothesis (RawStreaming only). */
    core::CommScalingStrategy commStrategy =
        core::CommScalingStrategy::HighMargin;

    /** MAC node (EventStreaming / DnnMlp / DnnCnn / Kalman). */
    ProcessNode node = ProcessNode::Node45nm;

    /** Allow the DNN to split at its earliest viable cut (Sec. 6.1;
     *  compute-bearing DNN/Kalman workloads only). */
    bool partitioned = false;

    /** PA/implementation efficiency assumed for M-QAM, in (0, 1]. */
    double qamEfficiency = kDefaultQamEfficiency;

    /** Uplink budget the deployment's link can sustain [Mbit/s];
     *  0 = uncapped. The verdict's linkMet checks against this. */
    double uplinkCapMbps = 0.0;

    /** Thermal envelope [mW/cm^2]; 0 = the paper's 40 mW/cm^2
     *  subdural limit (thermal::SafetyLimits). */
    double thermalEnvelopeMwPerCm2 = 0.0;
};

/** Request validity (reported in-band, never thrown or fatal). */
enum class QueryStatus : std::uint8_t {
    Ok,
    UnknownSoc,     //!< socId not in the catalog
    InvalidRequest, //!< out-of-range channels (QAM uplink past
                    //!< comm::kMaxQamBitsPerSymbol included),
                    //!< efficiency or envelope
};

/** One SoC verdict. Flat record; powers in mW, areas in mm^2. */
struct QueryResult
{
    QueryStatus status = QueryStatus::InvalidRequest;
    WorkloadClass workload = WorkloadClass::RawStreaming;
    int socId = 0;
    std::uint64_t channels = 0;

    bool feasible = false;    //!< budgetSafe && deadlineMet && linkMet
    bool budgetSafe = false;  //!< Psoc <= Pbudget (Eq. 3)
    bool deadlineMet = false; //!< accelerator meets t = 1/f (Eq. 11)
    bool linkMet = false;     //!< required uplink <= uplinkCapMbps

    double budgetUtilization = 0.0; //!< Psoc / Pbudget

    double totalPowerMw = 0.0;
    double sensingPowerMw = 0.0;
    double commPowerMw = 0.0;
    double computePowerMw = 0.0; //!< accelerator / spike detection
    double digitalPowerMw = 0.0;
    double powerBudgetMw = 0.0;
    double areaMm2 = 0.0;

    double uplinkMbps = 0.0; //!< required uplink data rate

    /** QamStreaming only: Fig. 7 minimum efficiency at this point. */
    double qamMinEfficiency = 0.0;

    /** Compute-bearing workloads: dropout / partition outcome. */
    std::uint64_t activeChannels = 0;
    std::uint64_t onImplantLayers = 0;
    std::uint64_t transmittedElements = 0;
};

static_assert(std::is_trivially_copyable_v<DesignQuery>,
              "queries must memo-hash and copy as plain bytes");
static_assert(std::is_trivially_copyable_v<QueryResult>,
              "results must publish/copy without allocation");

/** The paper's default thermal envelope in mW/cm^2 (Sec. 3.2). */
double defaultThermalEnvelopeMwPerCm2();

/**
 * Fold a request onto its canonical representative: zero defaults
 * resolved (channels, envelope), NaN/negative knobs replaced by
 * defaults, and every knob the workload class ignores reset — so
 * equality of canonical forms is semantic equality of requests.
 * Allocation-free (certified on the batch hot path).
 */
DesignQuery canonicalize(const DesignQuery &query);

/**
 * FNV-1a memo key over the canonical request's value bytes (field by
 * field, never raw struct memory, so padding can't leak in). Callers
 * must pass a canonicalize()d query. Allocation-free.
 */
std::uint64_t queryKey(const DesignQuery &canonical);

/**
 * FNV-1a digest of a result's value bytes — the bit-exactness probe
 * the determinism tests and `serve_throughput --csv` compare across
 * thread counts and cache states. Allocation-free.
 */
std::uint64_t resultDigest(const QueryResult &result);

/** Bar-label spelling, e.g. "dnn_mlp" (bench CSV / docs). */
std::string toString(WorkloadClass workload);

} // namespace mindful::serve

#endif // MINDFUL_SERVE_QUERY_HH
