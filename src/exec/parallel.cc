#include "exec/parallel.hh"

#include <algorithm>

#include "base/logging.hh"

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

void
parallelFor(std::size_t shards,
            const std::function<void(std::size_t)> &body,
            const char *label)
{
    if (shards != 0)
        ThreadPool::global().forkJoin(shards, body, label);
}

} // namespace mindful::exec
