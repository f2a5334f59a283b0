#include "serve/query_engine.hh"

#include "accel/mac_unit.hh"
#include "comm/modulation.hh"
#include "core/comm_centric.hh"
#include "core/event_centric.hh"
#include "core/experiments.hh"
#include "core/scaling.hh"
#include "core/soc_catalog.hh"
#include "core/workloads.hh"
#include "obs/metrics.hh"
#include "thermal/safety.hh"

namespace mindful::serve {

namespace {

accel::MacUnitParams
macFor(ProcessNode node)
{
    return node == ProcessNode::Node12nm ? accel::scaled12nm()
                                         : accel::nangate45();
}

/** Catalog lookup that reports absence instead of aborting. */
const core::SocDesign *
findSoc(int id)
{
    for (const core::SocDesign &design : core::socCatalog()) {
        if (design.id == id)
            return &design;
    }
    return nullptr;
}

/** The implant under the query's thermal envelope. */
core::ImplantModel
buildImplant(const core::SocDesign &design, const DesignQuery &query)
{
    thermal::SafetyLimits limits;
    limits.maxPowerDensity = PowerDensity::milliwattsPerSquareCentimetre(
        query.thermalEnvelopeMwPerCm2);
    return core::ImplantModel(design, limits);
}

/**
 * Whether @p channels' uplink fits a constellation the QAM model can
 * build (at most comm::kMaxQamBitsPerSymbol bits per symbol).
 */
bool
qamUplinkFits(const core::ImplantModel &implant, std::uint64_t channels)
{
    const core::QamStudy study(implant);
    return study.transceiver().requiredBitsPerSymbol(
               implant.sensingThroughput(channels)) <=
           comm::kMaxQamBitsPerSymbol;
}

/** Shared verdict assembly once the power/area story is known. */
void
finalize(QueryResult &result, const DesignQuery &query)
{
    result.status = QueryStatus::Ok;
    result.workload = query.workload;
    result.socId = query.socId;
    result.channels = query.channels;
    if (query.uplinkCapMbps > 0.0) {
        result.linkMet = result.uplinkMbps <= query.uplinkCapMbps;
    } else {
        result.linkMet = true;
    }
    result.feasible =
        result.budgetSafe && result.deadlineMet && result.linkMet;
}

QueryResult
evaluateRawStreaming(const core::ImplantModel &implant,
                     const DesignQuery &query)
{
    const core::CommCentricModel model(implant, query.commStrategy);
    const core::CommCentricPoint point = model.project(query.channels);

    // Split the projected non-sensing power back into comm/digital:
    // the digital slice is frozen under HighMargin and tiled under
    // Naive (comm_centric.hh), the transceiver takes the rest.
    const double ratio = static_cast<double>(query.channels) /
                         static_cast<double>(core::kStandardChannels);
    Power digital = implant.digitalPower();
    if (query.commStrategy == core::CommScalingStrategy::Naive)
        digital = digital * ratio;
    const Power comm = point.nonSensingPower - digital;

    QueryResult result;
    result.budgetSafe = point.safe();
    result.deadlineMet = true; // no on-implant compute deadline
    result.budgetUtilization = point.budgetUtilization;
    result.totalPowerMw = point.totalPower.inMilliwatts();
    result.sensingPowerMw = point.sensingPower.inMilliwatts();
    result.commPowerMw = comm.inMilliwatts();
    result.digitalPowerMw = digital.inMilliwatts();
    result.powerBudgetMw = point.powerBudget.inMilliwatts();
    result.areaMm2 = point.totalArea.inSquareMillimetres();
    result.uplinkMbps = point.dataRate.inMegabitsPerSecond();
    result.activeChannels = query.channels;
    finalize(result, query);
    return result;
}

QueryResult
evaluateQamStreaming(const core::ImplantModel &implant,
                     const DesignQuery &query)
{
    const core::QamStudy study(implant);
    const core::QamPoint point = study.evaluate(query.channels);

    const Power sensing = implant.sensingPower(query.channels);
    const Power digital = implant.digitalPower();
    const Power comm = point.idealTxPower / query.qamEfficiency;
    const Power total = sensing + digital + comm;
    const Area area =
        implant.sensingArea(query.channels) + implant.nonSensingArea();
    const Power budget = implant.powerBudget(area);

    QueryResult result;
    result.budgetUtilization = total / budget;
    result.budgetSafe = result.budgetUtilization <= 1.0;
    result.deadlineMet = true;
    result.totalPowerMw = total.inMilliwatts();
    result.sensingPowerMw = sensing.inMilliwatts();
    result.commPowerMw = comm.inMilliwatts();
    result.digitalPowerMw = digital.inMilliwatts();
    result.powerBudgetMw = budget.inMilliwatts();
    result.areaMm2 = area.inSquareMillimetres();
    result.uplinkMbps = point.dataRate.inMegabitsPerSecond();
    result.qamMinEfficiency = point.minimumEfficiency;
    result.activeChannels = query.channels;
    finalize(result, query);
    return result;
}

QueryResult
evaluateEventStreaming(const core::ImplantModel &implant,
                       const DesignQuery &query)
{
    core::EventStreamConfig config;
    config.mac = macFor(query.node);
    const core::EventCentricModel model(implant, config);
    const core::EventCentricPoint point = model.evaluate(query.channels);

    QueryResult result;
    result.budgetSafe = point.safe();
    result.deadlineMet = true; // detection keeps up by construction
    result.budgetUtilization = point.budgetUtilization;
    result.totalPowerMw = point.totalPower.inMilliwatts();
    result.sensingPowerMw = point.sensingPower.inMilliwatts();
    result.commPowerMw = point.commPower.inMilliwatts();
    result.computePowerMw = point.detectionPower.inMilliwatts();
    result.digitalPowerMw = point.digitalPower.inMilliwatts();
    result.powerBudgetMw = point.powerBudget.inMilliwatts();
    const Area area = implant.sensingArea(query.channels) +
                      implant.nonSensingArea();
    result.areaMm2 = area.inSquareMillimetres();
    result.uplinkMbps = point.dataRate.inMegabitsPerSecond();
    result.activeChannels = query.channels;
    finalize(result, query);
    return result;
}

/** The decoder a compute-centric workload class runs. */
core::ModelBuilder
decoderBuilder(WorkloadClass workload)
{
    switch (workload) {
    case WorkloadClass::DnnMlp:
        return core::experiments::speechModelBuilder(
            core::experiments::SpeechModel::Mlp);
    case WorkloadClass::DnnCnn:
        return core::experiments::speechModelBuilder(
            core::experiments::SpeechModel::DnCnn);
    default: {
        const core::KalmanWorkloadSpec spec;
        return [spec](std::uint64_t channels) {
            return core::buildKalmanWorkload(channels, spec);
        };
    }
    }
}

} // namespace

QueryResult
QueryEngine::evaluateCompCentric(const core::ImplantModel &implant,
                                 const DesignQuery &query)
{
    core::CompCentricConfig config;
    config.mac = macFor(query.node);
    // Kalman: one predict/update per feature bin.
    if (query.workload == WorkloadClass::Kalman)
        config.applicationRate =
            Frequency::hertz(core::KalmanWorkloadSpec{}.binRateHz);
    const core::CompCentricPoint point =
        evaluateDecoder(implant, query, config);

    QueryResult result;
    result.budgetSafe = point.budgetUtilization <= 1.0;
    result.deadlineMet = point.bound.feasible;
    result.budgetUtilization = point.budgetUtilization;
    result.totalPowerMw = point.totalPower.inMilliwatts();
    result.sensingPowerMw = point.sensingPower.inMilliwatts();
    result.commPowerMw = point.commPower.inMilliwatts();
    result.computePowerMw = point.computePower.inMilliwatts();
    result.digitalPowerMw = point.digitalPower.inMilliwatts();
    result.powerBudgetMw = point.powerBudget.inMilliwatts();
    const Area area = implant.sensingArea(query.channels) +
                      implant.nonSensingArea();
    result.areaMm2 = area.inSquareMillimetres();
    const double uplink_bps =
        config.applicationRate.inHertz() *
        static_cast<double>(point.transmittedElements) *
        static_cast<double>(implant.sampleBits());
    result.uplinkMbps = uplink_bps * 1e-6;
    result.activeChannels = point.activeChannels;
    result.onImplantLayers = point.onImplantLayers;
    result.transmittedElements = point.transmittedElements;
    finalize(result, query);
    return result;
}

QueryEngine::QueryEngine(std::size_t cache_capacity)
    : _cache(cache_capacity),
      _mlp(decoderBuilder(WorkloadClass::DnnMlp)),
      _cnn(decoderBuilder(WorkloadClass::DnnCnn)),
      _kalman(decoderBuilder(WorkloadClass::Kalman)),
      _queries("serve.queries"), _hits("serve.cache.hits"),
      _misses("serve.cache.misses"), _drops("serve.cache.drops"),
      _builds("serve.decoder.builds")
{
}

QueryEngine::Tally::Tally(const char *metric)
    : _export(obs::MetricRegistry::global().counter(metric))
{
}

QueryResult
QueryEngine::evaluate(const DesignQuery &request)
{
    const DesignQuery canonical = canonicalize(request);
    const std::uint64_t key = queryKey(canonical);
    _queries.bump();
    if (const QueryResult *hit = _cache.probe(key)) {
        _hits.bump();
        return *hit;
    }
    return evaluate(canonical, key);
}

QueryResult
QueryEngine::evaluate(const DesignQuery &canonical, std::uint64_t key)
{
    bool dropped = false;
    QueryResult result = evaluate(canonical, key, dropped);
    _misses.bump();
    if (dropped)
        _drops.bump();
    return result;
}

QueryResult
QueryEngine::evaluate(const DesignQuery &canonical, std::uint64_t key,
                      bool &dropped)
{
    const QueryResult result = evaluateUncached(canonical);
    const QueryResult *published = _cache.publish(key, result);
    dropped = published == nullptr;
    return dropped ? result : *published;
}

core::CompCentricPoint
QueryEngine::evaluateDecoder(const core::ImplantModel &implant,
                             const DesignQuery &canonical,
                             const core::CompCentricConfig &config)
{
    DecoderMemo &decoder = canonical.workload == WorkloadClass::DnnMlp
                               ? _mlp
                           : canonical.workload == WorkloadClass::DnnCnn
                               ? _cnn
                               : _kalman;
    {
        LockGuard lock(decoder.mutex);
        const std::size_t sized = decoder.memo.size();
        if (sized < kDecoderMemoCapacity ||
            decoder.memo.contains(canonical.channels)) {
            const core::CompCentricModel model(implant, decoder.memo,
                                               config);
            const core::CompCentricPoint point =
                model.evaluate(canonical.channels, canonical.partitioned);
            if (decoder.memo.size() != sized)
                _builds.bump();
            return point;
        }
    }
    // The memo is full: build and size this n' afresh.
    _builds.bump();
    const core::CompCentricModel model(
        implant, decoderBuilder(canonical.workload), config);
    return model.evaluate(canonical.channels, canonical.partitioned);
}

QueryResult
QueryEngine::evaluateUncached(const DesignQuery &canonical)
{
    QueryResult invalid;
    invalid.workload = canonical.workload;
    invalid.socId = canonical.socId;
    invalid.channels = canonical.channels;

    if (canonical.channels > kMaxQueryChannels) {
        invalid.status = QueryStatus::InvalidRequest;
        return invalid;
    }
    const core::SocDesign *design = findSoc(canonical.socId);
    if (design == nullptr) {
        invalid.status = QueryStatus::UnknownSoc;
        return invalid;
    }

    const core::ImplantModel implant = buildImplant(*design, canonical);
    if (canonical.workload == WorkloadClass::QamStreaming &&
        !qamUplinkFits(implant, canonical.channels)) {
        invalid.status = QueryStatus::InvalidRequest;
        return invalid;
    }
    switch (canonical.workload) {
    case WorkloadClass::RawStreaming:
        return evaluateRawStreaming(implant, canonical);
    case WorkloadClass::QamStreaming:
        return evaluateQamStreaming(implant, canonical);
    case WorkloadClass::EventStreaming:
        return evaluateEventStreaming(implant, canonical);
    case WorkloadClass::DnnMlp:
    case WorkloadClass::DnnCnn:
    case WorkloadClass::Kalman:
        return evaluateCompCentric(implant, canonical);
    }
    invalid.status = QueryStatus::InvalidRequest;
    return invalid;
}

} // namespace mindful::serve
