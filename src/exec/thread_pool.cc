#include "exec/thread_pool.hh"

#include <chrono>
#include <cstdlib>
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
#ifndef MINDFUL_OBS_DISABLED
        obs::MetricRegistry::global();
        obs::TraceCollector::global();
#endif
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

std::uint64_t
nowMicros()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

ThreadPool::ThreadPool(unsigned threads) : _threadCount(threads)
{
    MINDFUL_ASSERT(threads >= 1, "a pool needs at least one thread");
    MINDFUL_METRIC_GAUGE("exec.pool.threads",
                         static_cast<double>(threads));
#ifndef MINDFUL_OBS_DISABLED
    // Pool width is a run-manifest fact (obs/manifest.hh); obs cannot
    // link against exec, so exec publishes it.
    obs::setManifestThreadCount(threads);
#endif
    _workers.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        _workers.emplace_back([this, i] { workerLoop(i); });
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

void
ThreadPool::submit(std::function<void()> task)
{
    MINDFUL_ASSERT(task != nullptr, "cannot submit an empty task");
    {
        LockGuard lock(_mutex);
        MINDFUL_ASSERT(!_stopping,
                       "cannot submit to a stopping thread pool");
        _queue.push_back(std::move(task));
        ++_tasksSubmitted;
        if (_queue.size() > _queuePeak) {
            _queuePeak = _queue.size();
            MINDFUL_METRIC_GAUGE("exec.pool.queue_depth_peak",
                                 static_cast<double>(_queuePeak));
        }
    }
    MINDFUL_METRIC_COUNT("exec.pool.tasks", 1);
    _wake.notifyOne();
}

std::uint64_t
ThreadPool::tasksSubmitted() const
{
    LockGuard lock(_mutex);
    return _tasksSubmitted;
}

std::size_t
ThreadPool::queueDepthPeak() const
{
    LockGuard lock(_mutex);
    return _queuePeak;
}

std::uint64_t
ThreadPool::busyMicros() const
{
    LockGuard lock(_mutex);
    return _busyMicros;
}

bool
ThreadPool::onWorkerThread()
{
    return t_on_worker;
}

void
ThreadPool::workerLoop(unsigned)
{
    t_on_worker = true;
#ifndef MINDFUL_OBS_DISABLED
    // One-time, up-front allocation of this worker's trace ring, so
    // hot-path spans inside shard bodies never allocate.
    obs::TraceCollector::global().registerCurrentThread();
#endif
    for (;;) {
        std::function<void()> task;
        {
            LockGuard lock(_mutex);
            while (!_stopping && _queue.empty())
                _wake.wait(_mutex);
            // Graceful shutdown: drain every queued task before
            // exiting, so submitted work runs exactly once even
            // mid-teardown.
            if (_queue.empty())
                return;
            task = std::move(_queue.front());
            _queue.pop_front();
        }

        std::uint64_t start = nowMicros();
        task();
        std::uint64_t elapsed = nowMicros() - start;
        MINDFUL_METRIC_COUNT("exec.pool.busy_us", elapsed);

        LockGuard lock(_mutex);
        _busyMicros += elapsed;
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
    // reconfigure while parallel work is in flight (the pool drains
    // its queue before the workers join, so nothing is lost).
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
