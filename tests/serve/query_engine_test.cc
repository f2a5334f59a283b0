/**
 * @file
 * QueryEngine tests: canonicalization key-sharing, in-band error
 * statuses, memo-cache hit semantics, per-workload evaluation
 * sanity, and the batch determinism contract across thread counts
 * and cache states.
 */

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/scaling.hh"
#include "exec/thread_pool.hh"
#include "serve/query_engine.hh"

namespace mindful::serve {
namespace {

DesignQuery
makeQuery(WorkloadClass workload, int soc = 1,
          std::uint64_t channels = 2048)
{
    DesignQuery query;
    query.socId = soc;
    query.channels = channels;
    query.workload = workload;
    return query;
}

/** The bench's mixed-batch recipe, shrunk for test runtime. */
std::vector<DesignQuery>
mixedBatch(std::size_t count)
{
    static constexpr WorkloadClass kClasses[] = {
        WorkloadClass::RawStreaming,   WorkloadClass::QamStreaming,
        WorkloadClass::EventStreaming, WorkloadClass::DnnMlp,
        WorkloadClass::DnnCnn,         WorkloadClass::Kalman,
    };
    std::vector<DesignQuery> batch;
    batch.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        DesignQuery query;
        query.socId = static_cast<int>(1 + i % 8);
        query.workload = kClasses[(i / 8) % 6];
        query.channels = 1024 * (1 + (i / 48) % 4);
        query.partitioned = (i % 2) == 1;
        query.node = (i % 3) == 0 ? ProcessNode::Node12nm
                                  : ProcessNode::Node45nm;
        batch.push_back(query);
    }
    return batch;
}

std::uint64_t
digestOf(const std::vector<QueryResult> &results)
{
    std::uint64_t combined = 1469598103934665603ull;
    for (const QueryResult &result : results) {
        combined ^= resultDigest(result);
        combined *= 1099511628211ull;
    }
    return combined;
}

// --- Canonicalization --------------------------------------------------

TEST(CanonicalizeTest, ResolvesDefaults)
{
    DesignQuery query; // channels = 0, envelope = 0
    const DesignQuery canonical = canonicalize(query);
    EXPECT_EQ(canonical.channels, core::kStandardChannels);
    EXPECT_DOUBLE_EQ(canonical.thermalEnvelopeMwPerCm2,
                     defaultThermalEnvelopeMwPerCm2());
    EXPECT_DOUBLE_EQ(canonical.uplinkCapMbps, 0.0);
}

TEST(CanonicalizeTest, ReplacesNonFiniteKnobs)
{
    DesignQuery query;
    query.uplinkCapMbps = std::numeric_limits<double>::quiet_NaN();
    query.thermalEnvelopeMwPerCm2 = -5.0;
    query.qamEfficiency = 7.0;
    const DesignQuery canonical = canonicalize(query);
    EXPECT_DOUBLE_EQ(canonical.uplinkCapMbps, 0.0);
    EXPECT_DOUBLE_EQ(canonical.thermalEnvelopeMwPerCm2,
                     defaultThermalEnvelopeMwPerCm2());
    EXPECT_DOUBLE_EQ(canonical.qamEfficiency, kDefaultQamEfficiency);
}

TEST(CanonicalizeTest, EquivalentRequestsShareOneKey)
{
    // A raw-streaming query ignores the MAC node, partitioning, and
    // QAM efficiency; spelling those differently must not split the
    // memo entry.
    DesignQuery a = makeQuery(WorkloadClass::RawStreaming);
    DesignQuery b = a;
    b.node = ProcessNode::Node12nm;
    b.partitioned = true;
    b.qamEfficiency = 0.9;
    EXPECT_EQ(queryKey(canonicalize(a)), queryKey(canonicalize(b)));

    // Explicit defaults and zero-means-default also share a key.
    DesignQuery c = a;
    c.channels = 0;
    DesignQuery d = a;
    d.channels = core::kStandardChannels;
    d.thermalEnvelopeMwPerCm2 = defaultThermalEnvelopeMwPerCm2();
    EXPECT_EQ(queryKey(canonicalize(c)), queryKey(canonicalize(d)));
}

TEST(CanonicalizeTest, RelevantKnobsKeepDistinctKeys)
{
    DesignQuery mlp = makeQuery(WorkloadClass::DnnMlp);
    DesignQuery scaled = mlp;
    scaled.node = ProcessNode::Node12nm;
    EXPECT_NE(queryKey(canonicalize(mlp)), queryKey(canonicalize(scaled)));

    DesignQuery partitioned = mlp;
    partitioned.partitioned = true;
    EXPECT_NE(queryKey(canonicalize(mlp)),
              queryKey(canonicalize(partitioned)));
}

// --- Statuses ----------------------------------------------------------

TEST(QueryEngineTest, UnknownSocReportedInBand)
{
    QueryEngine engine;
    const QueryResult result =
        engine.evaluate(makeQuery(WorkloadClass::RawStreaming, 999));
    EXPECT_EQ(result.status, QueryStatus::UnknownSoc);
    EXPECT_FALSE(result.feasible);
    EXPECT_EQ(result.socId, 999);
}

TEST(QueryEngineTest, OversizedChannelCountIsInvalid)
{
    QueryEngine engine;
    DesignQuery query = makeQuery(WorkloadClass::RawStreaming);
    query.channels = kMaxQueryChannels + 1;
    const QueryResult result = engine.evaluate(query);
    EXPECT_EQ(result.status, QueryStatus::InvalidRequest);
    EXPECT_FALSE(result.feasible);
}

TEST(QueryEngineTest, QamPastSixteenBitsPerSymbolIsInvalid)
{
    // 32768 channels need more than 16 bits/symbol on SoC 1's
    // antenna: rejected in-band instead of ending the process.
    QueryEngine engine;
    const QueryResult result = engine.evaluate(
        makeQuery(WorkloadClass::QamStreaming, 1, 32768));
    EXPECT_EQ(result.status, QueryStatus::InvalidRequest);
    EXPECT_FALSE(result.feasible);
    EXPECT_EQ(result.channels, 32768u);
}

TEST(QueryEngineTest, QamAtSixteenThousandChannelsStillEvaluates)
{
    QueryEngine engine;
    const QueryResult result = engine.evaluate(
        makeQuery(WorkloadClass::QamStreaming, 1, 16384));
    ASSERT_EQ(result.status, QueryStatus::Ok);
    EXPECT_GT(result.qamMinEfficiency, 0.0);
    EXPECT_GT(result.uplinkMbps, 0.0);
}

// --- Evaluation sanity -------------------------------------------------

TEST(QueryEngineTest, RawStreamingMatchesPowerDecomposition)
{
    QueryEngine engine;
    const QueryResult result =
        engine.evaluate(makeQuery(WorkloadClass::RawStreaming));
    ASSERT_EQ(result.status, QueryStatus::Ok);
    EXPECT_GT(result.totalPowerMw, 0.0);
    EXPECT_GT(result.powerBudgetMw, 0.0);
    EXPECT_GT(result.uplinkMbps, 0.0);
    EXPECT_NEAR(result.totalPowerMw,
                result.sensingPowerMw + result.commPowerMw +
                    result.computePowerMw + result.digitalPowerMw,
                1e-9);
    EXPECT_NEAR(result.budgetUtilization,
                result.totalPowerMw / result.powerBudgetMw, 1e-9);
    EXPECT_EQ(result.budgetSafe, result.budgetUtilization <= 1.0);
}

TEST(QueryEngineTest, EventStreamingNeedsLessUplinkThanRaw)
{
    QueryEngine engine;
    const QueryResult raw =
        engine.evaluate(makeQuery(WorkloadClass::RawStreaming));
    const QueryResult events =
        engine.evaluate(makeQuery(WorkloadClass::EventStreaming));
    ASSERT_EQ(events.status, QueryStatus::Ok);
    EXPECT_GT(events.computePowerMw, 0.0); // spike detection
    EXPECT_LT(events.uplinkMbps, raw.uplinkMbps);
}

TEST(QueryEngineTest, QamReportsMinimumEfficiency)
{
    QueryEngine engine;
    const QueryResult result =
        engine.evaluate(makeQuery(WorkloadClass::QamStreaming, 1, 4096));
    ASSERT_EQ(result.status, QueryStatus::Ok);
    EXPECT_GT(result.qamMinEfficiency, 0.0);
}

TEST(QueryEngineTest, DnnWorkloadsFillComputeFields)
{
    QueryEngine engine;
    DesignQuery query = makeQuery(WorkloadClass::DnnMlp);
    const QueryResult result = engine.evaluate(query);
    ASSERT_EQ(result.status, QueryStatus::Ok);
    EXPECT_GT(result.activeChannels, 0u);
    EXPECT_GT(result.onImplantLayers, 0u);
    EXPECT_GT(result.transmittedElements, 0u);
    EXPECT_GT(result.computePowerMw, 0.0);
}

TEST(QueryEngineTest, WiderThermalEnvelopeRaisesTheBudget)
{
    QueryEngine engine;
    DesignQuery tight = makeQuery(WorkloadClass::RawStreaming);
    DesignQuery loose = tight;
    loose.thermalEnvelopeMwPerCm2 =
        2.0 * defaultThermalEnvelopeMwPerCm2();
    const QueryResult a = engine.evaluate(tight);
    const QueryResult b = engine.evaluate(loose);
    EXPECT_NEAR(b.powerBudgetMw, 2.0 * a.powerBudgetMw,
                1e-9 * a.powerBudgetMw);
    EXPECT_NEAR(b.totalPowerMw, a.totalPowerMw,
                1e-12 * a.totalPowerMw);
}

TEST(QueryEngineTest, UplinkCapGatesFeasibility)
{
    QueryEngine engine;
    DesignQuery query = makeQuery(WorkloadClass::RawStreaming);
    const QueryResult uncapped = engine.evaluate(query);
    ASSERT_GT(uncapped.uplinkMbps, 0.0);

    query.uplinkCapMbps = uncapped.uplinkMbps * 0.5;
    const QueryResult capped = engine.evaluate(query);
    EXPECT_FALSE(capped.linkMet);
    EXPECT_FALSE(capped.feasible);

    query.uplinkCapMbps = uncapped.uplinkMbps * 2.0;
    const QueryResult roomy = engine.evaluate(query);
    EXPECT_TRUE(roomy.linkMet);
}

// --- Cache semantics ---------------------------------------------------

TEST(QueryEngineTest, CacheHitReturnsBitIdenticalResult)
{
    QueryEngine engine;
    const DesignQuery query = makeQuery(WorkloadClass::DnnCnn);
    const std::uint64_t misses0 = engine.cacheMissesTotal();
    const std::uint64_t hits0 = engine.cacheHitsTotal();

    const QueryResult first = engine.evaluate(query);
    EXPECT_EQ(engine.cacheMissesTotal() - misses0, 1u);
    const QueryResult second = engine.evaluate(query);
    EXPECT_EQ(engine.cacheHitsTotal() - hits0, 1u);
    EXPECT_EQ(resultDigest(first), resultDigest(second));
}

TEST(QueryEngineTest, EquivalentSpellingsHitTheSameEntry)
{
    QueryEngine engine;
    DesignQuery a = makeQuery(WorkloadClass::RawStreaming);
    DesignQuery b = a;
    b.node = ProcessNode::Node12nm; // ignored by this workload
    const std::uint64_t misses0 = engine.cacheMissesTotal();
    engine.evaluate(a);
    const QueryResult hit = engine.evaluate(b);
    EXPECT_EQ(engine.cacheMissesTotal() - misses0, 1u);
    EXPECT_EQ(hit.status, QueryStatus::Ok);
}

// --- Batch determinism -------------------------------------------------

TEST(QueryEngineTest, BatchMatchesSingleQueryEvaluation)
{
    const std::vector<DesignQuery> batch = mixedBatch(96);
    QueryEngine batch_engine;
    const std::vector<QueryResult> results =
        batch_engine.evaluateBatch(batch);
    ASSERT_EQ(results.size(), batch.size());

    QueryEngine single_engine;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(resultDigest(results[i]),
                  resultDigest(single_engine.evaluate(batch[i])))
            << "batch index " << i;
    }
}

TEST(QueryEngineTest, BatchIsBitIdenticalAcrossThreadCounts)
{
    const std::vector<DesignQuery> batch = mixedBatch(192);
    const unsigned initial = exec::ThreadPool::globalThreadCount();

    std::uint64_t cold_digest = 0;
    std::uint64_t warm_digest = 0;
    for (unsigned threads : {1u, 2u, 8u}) {
        exec::ThreadPool::setGlobalThreadCount(threads);
        QueryEngine engine; // fresh cache per thread count
        const std::uint64_t cold = digestOf(engine.evaluateBatch(batch));
        const std::uint64_t warm = digestOf(engine.evaluateBatch(batch));
        if (cold_digest == 0) {
            cold_digest = cold;
            warm_digest = warm;
        }
        EXPECT_EQ(cold, cold_digest) << threads << " threads (cold)";
        EXPECT_EQ(warm, warm_digest) << threads << " threads (warm)";
        // Cache state must not change the bytes either.
        EXPECT_EQ(cold, warm) << threads << " threads (cold vs warm)";
    }
    exec::ThreadPool::setGlobalThreadCount(initial);
}

TEST(QueryEngineTest, BatchCountsHitsAndMisses)
{
    const std::vector<DesignQuery> batch = mixedBatch(96);
    QueryEngine engine;
    const std::uint64_t q0 = engine.queriesTotal();
    const std::uint64_t h0 = engine.cacheHitsTotal();
    const std::uint64_t m0 = engine.cacheMissesTotal();

    engine.evaluateBatch(batch);
    const std::uint64_t cold_hits = engine.cacheHitsTotal() - h0;
    const std::uint64_t cold_misses = engine.cacheMissesTotal() - m0;
    EXPECT_EQ(engine.queriesTotal() - q0, batch.size());
    EXPECT_EQ(cold_hits + cold_misses, batch.size());
    EXPECT_GT(cold_misses, 0u);

    engine.evaluateBatch(batch);
    // Fully warm: every query hits.
    EXPECT_EQ(engine.cacheHitsTotal() - h0 - cold_hits, batch.size());
    EXPECT_EQ(engine.cacheMissesTotal() - m0, cold_misses);
}

} // namespace
} // namespace mindful::serve
