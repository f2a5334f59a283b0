/**
 * @file
 * The mindful_serve query engine: batched, memo-cached evaluation of
 * design-space requests against the MINDFUL analytic models.
 *
 * One engine owns one MemoCache, one core::DnnCostMemo per decoder
 * family (MLP, DN-CNN, Kalman) and its own counts of queries, cache
 * hits, misses and drops and decoder builds; each count also feeds a
 * process-wide registry counter (serve.queries / serve.cache.hits /
 * serve.cache.misses / serve.cache.drops / serve.decoder.builds).
 * evaluate() answers one DesignQuery — from the cache when an
 * equivalent request was answered before, else through the
 * core/accel/thermal analytic path for its workload class. A decoder
 * miss sizes its network through its family's memo, under that memo's
 * lock, so each distinct (family, n') is built and solved once per
 * engine. evaluateBatch() (batch.cc) shards a request vector over
 * exec::parallelFor under the repo's determinism contract: fixed
 * kDefaultShards decomposition, indexed writes, results bit-identical
 * for any --threads value and any cache or memo state
 * (docs/serving.md).
 */

#ifndef MINDFUL_SERVE_QUERY_ENGINE_HH
#define MINDFUL_SERVE_QUERY_ENGINE_HH

#include <atomic>
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

    // This engine's own counts since construction; the registry
    // counters sum them over every engine in the process.
    std::uint64_t queriesTotal() const { return _queries.total(); }
    std::uint64_t cacheHitsTotal() const { return _hits.total(); }
    std::uint64_t cacheMissesTotal() const { return _misses.total(); }
    std::uint64_t cacheDropsTotal() const { return _drops.total(); }
    std::uint64_t decoderBuildsTotal() const { return _builds.total(); }

  private:
    /**
     * One of the engine's own counts, striped per thread like
     * obs::CounterHandle's cells, so a bump is one relaxed add into the
     * calling thread's cache line and no atomic is shared across
     * threads. Each bump also feeds the registry counter that exports
     * the process-wide total.
     */
    class Tally
    {
      public:
        explicit Tally(const char *metric);

        void
        bump(std::uint64_t n = 1)
        {
            _cells.stripes[obs::hotStripeIndex()].value.fetch_add(
                n, std::memory_order_relaxed);
            _export.bump(n);
        }

        std::uint64_t total() const { return _cells.total(); }

      private:
        obs::CounterCells _cells;
        obs::CounterHandle _export;
    };

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

    /**
     * evaluate(canonical, key) without counting the miss: sets
     * @p dropped when the full cache refused the result, so a batch
     * can count its misses and drops once. Named evaluate like the
     * public miss path, whose name mindful-analyze leaves opaque
     * (docs/static_analysis.md): a miss may allocate and lock.
     */
    QueryResult evaluate(const DesignQuery &canonical, std::uint64_t key,
                         bool &dropped);

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

    // Bumped lock-free; the export handles resolve at construction.
    Tally _queries;
    Tally _hits;
    Tally _misses;
    Tally _drops;
    Tally _builds;
};

} // namespace mindful::serve

#endif // MINDFUL_SERVE_QUERY_ENGINE_HH
