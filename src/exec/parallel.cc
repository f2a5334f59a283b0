#include "exec/parallel.hh"

#include <exception>

#include "base/compiler.hh"
#include "base/logging.hh"
#include "obs/collector.hh"

namespace mindful::exec {

ShardRange
shardRange(std::uint64_t items, std::size_t shards, std::size_t shard)
{
    MINDFUL_ASSERT(shards > 0, "need at least one shard");
    MINDFUL_ASSERT(shard < shards, "shard index out of range");
    const std::uint64_t base = items / shards;
    const std::uint64_t extra = items % shards;
    ShardRange range;
    range.begin = shard * base + std::min<std::uint64_t>(shard, extra);
    range.end = range.begin + base + (shard < extra ? 1 : 0);
    return range;
}

namespace {

void
runShard(const std::function<void(std::size_t)> &body, std::size_t shard,
         const char *label)
{
    MINDFUL_TRACE_SPAN(span, "exec",
                       label ? label : "parallel_for.shard");
    span.arg("shard", static_cast<std::uint64_t>(shard));
    body(shard);
}

} // namespace

void
parallelFor(std::size_t shards,
            const std::function<void(std::size_t)> &body,
            const char *label)
{
    if (shards == 0)
        return;

    ThreadPool &pool = ThreadPool::global();
    // Inline fast path: a single worker could add nothing but queue
    // overhead, and a pool worker running shards inline is what makes
    // nested parallelFor calls deadlock-free. Shard order and spans
    // are identical to the pooled path, so results are too.
    if (shards == 1 || pool.threadCount() <= 1 ||
        ThreadPool::onWorkerThread()) {
        for (std::size_t shard = 0; shard < shards; ++shard)
            runShard(body, shard, label);
        return;
    }

    struct Completion
    {
        Mutex mutex;
        ConditionVariable done;
        std::size_t remaining MINDFUL_GUARDED_BY(mutex) = 0;
        std::vector<std::exception_ptr> errors MINDFUL_GUARDED_BY(mutex);
    };
    Completion completion;
    {
        LockGuard lock(completion.mutex);
        completion.remaining = shards;
        completion.errors.resize(shards);
    }

    for (std::size_t shard = 0; shard < shards; ++shard) {
        pool.submit([&completion, &body, label, shard] {
            std::exception_ptr error;
            try {
                runShard(body, shard, label);
            } catch (...) {
                error = std::current_exception();
            }
            LockGuard lock(completion.mutex);
            if (error)
                completion.errors[shard] = error;
            if (--completion.remaining == 0)
                completion.done.notifyAll();
        });
    }

    {
        LockGuard lock(completion.mutex);
        while (completion.remaining != 0)
            completion.done.wait(completion.mutex);
        // All shards finished; propagate the lowest-indexed failure
        // so the surfaced exception does not depend on scheduling.
        for (auto &error : completion.errors) {
            if (error)
                std::rethrow_exception(error);
        }
    }
}

} // namespace mindful::exec
