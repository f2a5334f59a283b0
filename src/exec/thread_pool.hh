/**
 * @file
 * Process-wide fork-join pool behind exec::parallelFor.
 *
 * The pool follows the engineering discipline of the rest of the
 * repository: determinism first. It never decides *what* work runs or
 * in *which* order results combine — that is parallel.hh's job, via a
 * fixed shard count decoupled from the thread count — it only supplies
 * threads to run already-decomposed shards on. Consequences:
 *
 *  - the pool is started lazily, on first use, so binaries that never
 *    go parallel pay nothing;
 *  - the thread count is configuration (--threads, MINDFUL_THREADS,
 *    hardware_concurrency fallback), never part of any result;
 *  - parallelFor is the only way in. One call posts one job — the
 *    body, the shard count, an atomic next-shard index and per-shard
 *    exception slots — with one wake, and the caller claims shards
 *    alongside the workers, so an N-thread pool runs N - 1 workers.
 *
 * Pool width and shard totals are published through mindful_obs as
 * the exec.pool.* metrics (docs/observability.md).
 */

#ifndef MINDFUL_EXEC_THREAD_POOL_HH
#define MINDFUL_EXEC_THREAD_POOL_HH

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "base/compiler.hh"

namespace mindful::exec {

/** Fixed-size fork-join pool with one job slot. */
class ThreadPool
{
  public:
    /** A pool of @p threads (>= 1): the caller plus threads - 1 workers. */
    explicit ThreadPool(unsigned threads);

    /** Joins every worker; no job may be in flight. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned threadCount() const { return _threadCount; }

    /** True when called from one of this process's pool workers. */
    static bool onWorkerThread();

    /**
     * The process-wide pool, created on first use with the configured
     * thread count (setGlobalThreadCount, else MINDFUL_THREADS, else
     * hardware_concurrency).
     */
    static ThreadPool &global();

    /**
     * Configure the global pool's thread count; 0 restores the
     * automatic default. If the pool is already running with a
     * different count it is shut down and lazily restarted — safe
     * because shard decomposition never depends on the count.
     */
    static void setGlobalThreadCount(unsigned threads);

    /** Thread count the global pool has (or would start with). */
    static unsigned globalThreadCount();

  private:
    struct Job;

    friend void parallelFor(std::size_t shards,
                            const std::function<void(std::size_t)> &body,
                            const char *label);

    /** parallelFor's body for shards > 0; see parallel.hh. */
    void forkJoin(std::size_t shards,
                  const std::function<void(std::size_t)> &body,
                  const char *label);

    void workerLoop();

    const unsigned _threadCount;
    std::vector<std::thread> _workers;

    Mutex _mutex;
    ConditionVariable _wake; //!< a job was posted, or the pool stops
    ConditionVariable _left; //!< the last worker left the job
    Job *_job MINDFUL_GUARDED_BY(_mutex) = nullptr;
    std::uint64_t _generation MINDFUL_GUARDED_BY(_mutex) = 0;
    unsigned _joined MINDFUL_GUARDED_BY(_mutex) = 0; //!< workers in _job
    bool _stopping MINDFUL_GUARDED_BY(_mutex) = false;
};

} // namespace mindful::exec

#endif // MINDFUL_EXEC_THREAD_POOL_HH
