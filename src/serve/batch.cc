/**
 * @file
 * Batched query evaluation under the determinism contract
 * (docs/parallelism.md): requests shard over exec::parallelFor with
 * the fixed kDefaultShards decomposition, every request writes its
 * own results slot, and results are therefore bit-identical for any
 * --threads value. They are also bit-identical for any *cache* state:
 * a hit returns the atomically published first evaluation, and the
 * analytic paths are deterministic, so re-evaluating produces the
 * same bytes the cache would have returned.
 *
 * The shard body's probe path — canonicalize, queryKey, MemoCache
 * probe — is allocation- and lock-free and is certified by
 * mindful-analyze's hot-path check. Only a miss drops into the
 * (allocating) analytic evaluation. Shards count their queries, hits,
 * misses and drops in locals; the engine's tallies take the sums once
 * per batch, so no query or miss pays an atomic add.
 */

#include <array>
#include <cstdint>

#include "base/compiler.hh"
#include "exec/parallel.hh"
#include "serve/query_engine.hh"

namespace mindful::serve {

std::vector<QueryResult>
QueryEngine::evaluateBatch(const std::vector<DesignQuery> &requests)
{
    std::vector<QueryResult> results(requests.size());
    if (requests.empty())
        return results;

    struct Counts
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t drops = 0;
    };
    std::array<Counts, exec::kDefaultShards> shard_counts{};
    exec::parallelFor(
        exec::kDefaultShards,
        [&](std::size_t shard) {
            const exec::ShardRange range = exec::shardRange(
                requests.size(), exec::kDefaultShards, shard);
            Counts counts;
            MINDFUL_RT_LOOP("serve.batch")
            for (std::uint64_t i = range.begin; i < range.end; ++i) {
                const DesignQuery canonical =
                    canonicalize(requests[i]);
                const std::uint64_t key = queryKey(canonical);
                const QueryResult *hit = _cache.probe(key);
                if (hit != nullptr) {
                    ++counts.hits;
                    results[i] = *hit;
                } else {
                    ++counts.misses;
                    bool dropped = false;
                    results[i] = evaluate(canonical, key, dropped);
                    counts.drops += dropped;
                }
            }
            shard_counts[shard] = counts;
        },
        "serve.batch_shard");

    Counts total;
    for (const Counts &counts : shard_counts) {
        total.hits += counts.hits;
        total.misses += counts.misses;
        total.drops += counts.drops;
    }
    _queries.bump(requests.size());
    _hits.bump(total.hits);
    _misses.bump(total.misses);
    _drops.bump(total.drops);
    return results;
}

} // namespace mindful::serve
