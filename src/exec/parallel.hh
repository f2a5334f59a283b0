/**
 * @file
 * Deterministic data-parallel helpers over the process-wide pool.
 *
 * The central contract (docs/parallelism.md): **results depend only
 * on the shard decomposition, never on the thread count.** Callers
 * pick a fixed shard count (a constant of the algorithm, part of its
 * reproducibility surface, like an RNG seed), each shard computes an
 * independent partial result — with its own Rng::fork(stream) when
 * stochastic — and partial results combine on the calling thread in
 * ascending shard order. Running on 1 thread or 16 therefore produces
 * bit-for-bit identical output; `--threads` is a pure performance
 * knob.
 *
 * parallelFor is a fork-join on the process-wide pool: the caller
 * claims shards alongside the workers and returns once every shard
 * finished. It runs inline (same shard order, same spans) for one
 * shard, on a single-thread pool, on a pool worker, from a shard the
 * caller itself is running, and while another thread's call holds the
 * pool — so nested and concurrent calls never deadlock.
 */

#ifndef MINDFUL_EXEC_PARALLEL_HH
#define MINDFUL_EXEC_PARALLEL_HH

#include <cstdint>
#include <functional>

#include "exec/thread_pool.hh"

namespace mindful::exec {

/**
 * Default shard count for the Monte-Carlo substrates. Deliberately a
 * constant (not a function of the thread count): enough shards to
 * keep 8+ threads balanced, few enough that per-shard overhead stays
 * negligible. Changing it changes which RNG stream simulates which
 * sample — i.e. it is part of the determinism contract.
 */
inline constexpr std::size_t kDefaultShards = 16;

/** Half-open item range [begin, end) owned by one shard. */
struct ShardRange
{
    std::uint64_t begin = 0;
    std::uint64_t end = 0;

    std::uint64_t size() const { return end - begin; }
};

/**
 * Deterministic near-even split of @p items across @p shards: the
 * first (items % shards) shards hold one extra item. Depends only on
 * (items, shards, shard).
 */
ShardRange shardRange(std::uint64_t items, std::size_t shards,
                      std::size_t shard);

/**
 * Run body(shard) for every shard in [0, shards), blocking until all
 * complete. Exceptions are captured per shard and the lowest-indexed
 * one is rethrown on the caller after every shard finished (so which
 * exception propagates is also thread-count independent). Each shard
 * records a trace span named @p label (category "exec") when tracing
 * is enabled. The only entry point to the pool (thread_pool.hh).
 */
void parallelFor(std::size_t shards,
                 const std::function<void(std::size_t)> &body,
                 const char *label = nullptr);

} // namespace mindful::exec

#endif // MINDFUL_EXEC_PARALLEL_HH
