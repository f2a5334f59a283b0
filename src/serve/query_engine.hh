/**
 * @file
 * The mindful_serve query engine: batched, memo-cached evaluation of
 * design-space requests against the MINDFUL analytic models.
 *
 * One engine owns one MemoCache, one core::DnnCostMemo per decoder
 * family (MLP, DN-CNN, Kalman) and a set of pre-resolved counters
 * (serve.queries / serve.cache.hits / serve.cache.misses /
 * serve.cache.drops / serve.decoder.builds). evaluate() answers one
 * DesignQuery — from the cache when an equivalent request was
 * answered before, else through the core/accel/thermal analytic path
 * for its workload class. A decoder miss sizes its network through
 * its family's memo, under that memo's lock, so each distinct
 * (family, n') is built and solved once per engine. evaluateBatch()
 * (batch.cc) shards a request vector over exec::parallelFor under the
 * repo's determinism contract: fixed kDefaultShards decomposition,
 * indexed writes, results bit-identical for any --threads value and
 * any cache or memo state (docs/serving.md).
 */

#ifndef MINDFUL_SERVE_QUERY_ENGINE_HH
#define MINDFUL_SERVE_QUERY_ENGINE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "base/compiler.hh"
#include "core/comp_centric.hh"
#include "obs/handles.hh"
#include "serve/cache.hh"
#include "serve/query.hh"

namespace mindful::serve {

/** Evaluates design queries; see file comment. */
class QueryEngine
{
  public:
    /**
     * Distinct n' each decoder memo sizes. An entry holds the census,
     * the cut volumes and up to four accelerator bounds (full and cut,
     * per node). Measured heap per entry near kMaxQueryChannels: MLP
     * 2.1 KB, DN-CNN 2.8 KB, Kalman 1.1 KB, so three full memos hold
     * about 6 MB. A miss whose n' finds its memo full sizes the
     * decoder without it.
     */
    static constexpr std::size_t kDecoderMemoCapacity = 1024;

    explicit QueryEngine(
        std::size_t cache_capacity = MemoCache::kDefaultCapacity);

    /**
     * Answer one request: canonicalize, probe the cache, evaluate on
     * a miss and publish the result. Invalid requests come back with
     * status InvalidRequest / UnknownSoc (never fatal). Equal
     * canonical requests always return bit-identical results.
     */
    QueryResult evaluate(const DesignQuery &request);

    /**
     * Miss path: evaluate an already-canonicalized request under its
     * precomputed memo key and publish the result. evaluateBatch's
     * shard bodies call this after an inline cache probe.
     */
    QueryResult evaluate(const DesignQuery &canonical,
                         std::uint64_t key);

    /**
     * Answer a request vector in parallel (batch.cc). Requests are
     * sharded over exec::parallelFor with the fixed kDefaultShards
     * decomposition; results[i] answers requests[i], bit-identical
     * for any thread count and cache state.
     */
    std::vector<QueryResult>
    evaluateBatch(const std::vector<DesignQuery> &requests);

    const MemoCache &cache() const { return _cache; }

    // Counter snapshots (process-wide totals; tests take deltas).
    std::uint64_t queriesTotal() const { return _queries.total(); }
    std::uint64_t cacheHitsTotal() const { return _hits.total(); }
    std::uint64_t cacheMissesTotal() const { return _misses.total(); }
    std::uint64_t cacheDropsTotal() const { return _drops.total(); }
    std::uint64_t decoderBuildsTotal() const { return _builds.total(); }

  private:
    /** One decoder family's memo, behind its own lock. */
    struct DecoderMemo
    {
        explicit DecoderMemo(core::ModelBuilder builder)
            : memo(std::move(builder))
        {
        }

        Mutex mutex;
        core::DnnCostMemo memo MINDFUL_GUARDED_BY(mutex);
    };

    /** The uncached analytic evaluation for one canonical request. */
    QueryResult evaluateUncached(const DesignQuery &canonical);

    /** A decoder class's verdict: MLP, DN-CNN or Kalman. */
    QueryResult evaluateCompCentric(const core::ImplantModel &implant,
                                    const DesignQuery &query);

    /**
     * Evaluate a decoder class's design point through the class's
     * memo under its lock, or afresh when the memo is full.
     */
    core::CompCentricPoint
    evaluateDecoder(const core::ImplantModel &implant,
                    const DesignQuery &canonical,
                    const core::CompCentricConfig &config);

    MemoCache _cache;
    DecoderMemo _mlp;
    DecoderMemo _cnn;
    DecoderMemo _kalman;

    // Resolved once at construction; bumped lock-free afterwards.
    obs::CounterHandle _queries;
    obs::CounterHandle _hits;
    obs::CounterHandle _misses;
    obs::CounterHandle _drops;
    obs::CounterHandle _builds;
};

} // namespace mindful::serve

#endif // MINDFUL_SERVE_QUERY_ENGINE_HH
