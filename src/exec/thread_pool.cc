#include "exec/thread_pool.hh"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

#include "base/compiler.hh"
#include "base/logging.hh"
#include "base/parse.hh"
#include "obs/collector.hh"
#include "obs/manifest.hh"
#include "obs/metrics.hh"

namespace mindful::exec {

namespace {

thread_local bool t_on_worker = false;

/**
 * Global-pool holder. Constructing it first touches the obs
 * singletons so they complete construction earlier and are therefore
 * destroyed *after* the holder — workers can never outlive the
 * metric registry they report into.
 */
struct GlobalPool
{
    GlobalPool()
    {
        obs::MetricRegistry::global();
        obs::TraceCollector::global();
    }

    Mutex mutex;
    std::unique_ptr<ThreadPool> pool MINDFUL_GUARDED_BY(mutex);
    unsigned requested MINDFUL_GUARDED_BY(mutex) = 0; //!< 0 = automatic
};

GlobalPool &
holder()
{
    static GlobalPool global;
    return global;
}

unsigned
resolveThreadCount(unsigned requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("MINDFUL_THREADS")) {
        // Strict parse (base/parse.hh): "8abc" and "-1" are invalid
        // rather than 8 threads or a wrapped-around huge count.
        std::optional<unsigned> value = parseThreadCount(env);
        if (value && *value >= 1)
            return *value;
        MINDFUL_WARN_ONCE("ignoring invalid MINDFUL_THREADS=", env,
                          " (want an integer in [1, ", kMaxThreadCount,
                          "])");
    }
    unsigned hardware = std::thread::hardware_concurrency();
    return hardware > 0 ? hardware : 1;
}

/** One shard under its trace span; parallelFor's unit of work. */
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

/**
 * One parallelFor call, on the caller's stack. Shards are claimed
 * through nextShard; the claimer of a shard alone writes its error
 * slot, and the pool mutex orders every claimer's writes before the
 * caller's reads once the last worker has left the job.
 */
struct ThreadPool::Job
{
    Job(const std::function<void(std::size_t)> &fn, std::size_t count,
        const char *name)
        : body(fn), shards(count), label(name), errors(count)
    {
    }

    /** Run unclaimed shards until none is left. */
    void
    claimShards()
    {
        for (std::size_t shard =
                 nextShard.fetch_add(1, std::memory_order_relaxed);
             shard < shards;
             shard = nextShard.fetch_add(1, std::memory_order_relaxed)) {
            try {
                runShard(body, shard, label);
            } catch (...) {
                errors[shard] = std::current_exception();
            }
        }
    }

    const std::function<void(std::size_t)> &body;
    const std::size_t shards;
    const char *const label;
    MINDFUL_ATOMIC_ROLE(ticket)
    std::atomic<std::size_t> nextShard{0};
    std::vector<std::exception_ptr> errors;
};

ThreadPool::ThreadPool(unsigned threads) : _threadCount(threads)
{
    MINDFUL_ASSERT(threads >= 1, "a pool needs at least one thread");
    MINDFUL_METRIC_GAUGE("exec.pool.threads",
                         static_cast<double>(threads));
    // Pool width is a run-manifest fact (obs/manifest.hh); obs cannot
    // link against exec, so exec publishes it.
    obs::setManifestThreadCount(threads);
    _workers.reserve(threads - 1);
    for (unsigned i = 1; i < threads; ++i)
        _workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        LockGuard lock(_mutex);
        _stopping = true;
    }
    _wake.notifyAll();
    for (auto &worker : _workers)
        worker.join();
}

bool
ThreadPool::onWorkerThread()
{
    return t_on_worker;
}

void
ThreadPool::forkJoin(std::size_t shards,
                     const std::function<void(std::size_t)> &body,
                     const char *label)
{
    Job job(body, shards, label);
    // Inline path: one shard or no workers leaves nothing to share,
    // and a worker runs a nested call itself so it never waits on the
    // pool it occupies. A busy slot means either a nested call from a
    // shard this thread claimed (its own job) or another thread's job;
    // both run inline too. Inline, this thread claims every shard in
    // ascending order, so results are identical.
    bool pooled = shards > 1 && !_workers.empty() && !t_on_worker;
    if (pooled) {
        LockGuard lock(_mutex);
        pooled = _job == nullptr;
        if (pooled) {
            _job = &job;
            ++_generation;
        }
    }
    if (pooled)
        _wake.notifyAll();
    job.claimShards();
    if (pooled) {
        // Every shard is claimed. The job lives on this stack, so hold
        // the slot until every worker that joined it has left (a late
        // waker joins, finds no shard and leaves), then free it.
        LockGuard lock(_mutex);
        while (_joined != 0)
            _left.wait(_mutex);
        _job = nullptr;
    }
    MINDFUL_METRIC_COUNT("exec.pool.tasks", shards);
    // Every shard ran; rethrow the lowest-indexed failure so the
    // surfaced exception does not depend on scheduling.
    for (auto &error : job.errors) {
        if (error)
            std::rethrow_exception(error);
    }
}

void
ThreadPool::workerLoop()
{
    t_on_worker = true;
    // One-time, up-front allocation of this worker's trace ring, so
    // hot-path spans inside shard bodies never allocate.
    obs::TraceCollector::global().registerCurrentThread();
    std::uint64_t seen = 0;
    for (;;) {
        Job *job = nullptr;
        {
            LockGuard lock(_mutex);
            while (!_stopping && (_job == nullptr || _generation == seen))
                _wake.wait(_mutex);
            if (_stopping)
                return;
            job = _job;
            seen = _generation;
            ++_joined;
        }
        job->claimShards();
        LockGuard lock(_mutex);
        if (--_joined == 0)
            _left.notifyOne();
    }
}

ThreadPool &
ThreadPool::global()
{
    GlobalPool &global = holder();
    LockGuard lock(global.mutex);
    if (!global.pool) {
        global.pool = std::make_unique<ThreadPool>(
            resolveThreadCount(global.requested));
    }
    return *global.pool;
}

void
ThreadPool::setGlobalThreadCount(unsigned threads)
{
    GlobalPool &global = holder();
    LockGuard lock(global.mutex);
    global.requested = threads;
    unsigned resolved = resolveThreadCount(threads);
    // Restart lazily on the next global() call. Callers must not
    // reconfigure while a parallelFor is in flight.
    if (global.pool && global.pool->threadCount() != resolved)
        global.pool.reset();
}

unsigned
ThreadPool::globalThreadCount()
{
    GlobalPool &global = holder();
    LockGuard lock(global.mutex);
    if (global.pool)
        return global.pool->threadCount();
    return resolveThreadCount(global.requested);
}

} // namespace mindful::exec
