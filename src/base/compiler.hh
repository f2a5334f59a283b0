/**
 * @file
 * Compiler-specific annotations, chiefly Clang's thread-safety
 * analysis, plus the annotated synchronization primitives the rest of
 * the repository locks with.
 *
 * The MINDFUL_* macros wrap Clang's capability attributes
 * (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html) and expand
 * to nothing on other compilers, so the annotations are free
 * documentation under GCC and compile-time proof under Clang. CI
 * builds the tree with `-Wthread-safety -Werror=thread-safety`
 * (see .github/workflows/ci.yml and docs/static_analysis.md).
 *
 * Conventions for shared-state classes:
 *  - every member touched by more than one thread carries
 *    MINDFUL_GUARDED_BY(<mutex member>);
 *  - private helpers called with the lock held are annotated
 *    MINDFUL_REQUIRES(<mutex>) instead of re-locking;
 *  - the std primitives are never used directly — mindful::Mutex,
 *    mindful::LockGuard and mindful::ConditionVariable carry the
 *    attributes std::mutex lacks.
 */

#ifndef MINDFUL_BASE_COMPILER_HH
#define MINDFUL_BASE_COMPILER_HH

#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define MINDFUL_TSA(x) __attribute__((x))
#else
#define MINDFUL_TSA(x)
#endif

/** Marks a class as a lockable capability (mutexes). */
#define MINDFUL_CAPABILITY(name) MINDFUL_TSA(capability(name))

/** Marks an RAII class that acquires in its ctor, releases in dtor. */
#define MINDFUL_SCOPED_CAPABILITY MINDFUL_TSA(scoped_lockable)

/** Data member readable/writable only with the given mutex held. */
#define MINDFUL_GUARDED_BY(x) MINDFUL_TSA(guarded_by(x))

/** Pointer member whose pointee is guarded by the given mutex. */
#define MINDFUL_PT_GUARDED_BY(x) MINDFUL_TSA(pt_guarded_by(x))

/** Function that must be called with the given mutexes held. */
#define MINDFUL_REQUIRES(...) \
    MINDFUL_TSA(requires_capability(__VA_ARGS__))

/** Function that must be called with the given mutexes NOT held. */
#define MINDFUL_EXCLUDES(...) MINDFUL_TSA(locks_excluded(__VA_ARGS__))

/** Function that acquires the given mutexes (and does not release). */
#define MINDFUL_ACQUIRE(...) MINDFUL_TSA(acquire_capability(__VA_ARGS__))

/** Function that releases the given mutexes. */
#define MINDFUL_RELEASE(...) MINDFUL_TSA(release_capability(__VA_ARGS__))

/** Function that acquires the mutex when it returns @p result. */
#define MINDFUL_TRY_ACQUIRE(result, ...) \
    MINDFUL_TSA(try_acquire_capability(result, __VA_ARGS__))

/** Function returning a reference to the capability guarding it. */
#define MINDFUL_RETURN_CAPABILITY(x) MINDFUL_TSA(lock_returned(x))

/**
 * Escape hatch: disables the analysis for one function. Reserve for
 * constructs the analysis provably cannot express, and say why in a
 * comment. src/exec and src/obs must not use it (CI enforces the
 * annotations there suppression-free).
 */
#define MINDFUL_NO_THREAD_SAFETY_ANALYSIS \
    MINDFUL_TSA(no_thread_safety_analysis)

/**
 * Declared publication protocol of a std::atomic field, checked by
 * mindful-analyze's atomics-discipline pass (docs/static_analysis.md).
 * Place directly before the declaration (or before the parameter, for
 * helpers that operate on a caller's cell):
 *
 *   MINDFUL_ATOMIC_ROLE(spsc_head)
 *   alignas(64) std::atomic<std::size_t> _head{0};
 *
 * Roles and the per-operation rules they switch on:
 *  - publish_ptr:  release (or CAS-release) stores paired with acquire
 *                  loads; a relaxed load may be null-checked but never
 *                  dereferenced.
 *  - spsc_head /   single-writer ring indices: one producer site, plain
 *    spsc_tail:    release stores, consumer loads acquire.
 *  - stat_counter: relaxed everywhere; the value is telemetry and must
 *                  not steer control flow.
 *  - once_flag:    latched gates/config cells; relaxed or
 *                  acquire/release as the handoff requires.
 *  - seqlock:      reserved for the streaming pipeline's sequence
 *                  counters (acquire loads, release stores).
 *
 * The macro expands to nothing — it is a marker for the analyzer's
 * lexer, which also flags unannotated atomics, memory_order_consume,
 * and orderings a role forbids. Escapes use `analyze: atomic-ok`
 * comments, policed like every other suppression.
 */
#define MINDFUL_ATOMIC_ROLE(role)

/**
 * Marks the loop that immediately follows as a *streaming stage loop*
 * — a real-time root for mindful-analyze's realtime-loop pass
 * (docs/static_analysis.md). Place directly before a `while`/`for`
 * statement; the stage name is a short dotted identifier string:
 *
 *   MINDFUL_RT_LOOP("collector.drain")
 *   while (ring->tryPop(event)) { ... }
 *
 * Everything reachable from the annotated loop (condition and body,
 * through resolvable calls, cross-TU) must stay non-blocking: no
 * Mutex/ConditionVariable, no file or stream construction, no
 * sleep/this_thread calls, no unbounded `while (true)` without a
 * break/return, and no by-name trace span or metric lookups (the
 * pre-resolved MINDFUL_HOT_* handles stay legal).
 * Escapes use `analyze: rt-ok` comments with a parenthesized reason,
 * policed like every other suppression.
 *
 * The macro expands to nothing — like MINDFUL_ATOMIC_ROLE it is a
 * marker for the analyzer's lexer, not for the compiler.
 */
#define MINDFUL_RT_LOOP(stage)

namespace mindful {

/**
 * std::mutex with the capability attribute the analysis needs.
 * Use LockGuard for scoped locking; lock()/unlock() exist for the
 * rare manual protocols (and for ConditionVariable).
 */
class MINDFUL_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() MINDFUL_ACQUIRE() { _mutex.lock(); }
    void unlock() MINDFUL_RELEASE() { _mutex.unlock(); }

    bool
    tryLock() MINDFUL_TRY_ACQUIRE(true)
    {
        return _mutex.try_lock();
    }

  private:
    friend class ConditionVariable;
    std::mutex _mutex;
};

/** RAII lock over a mindful::Mutex (annotated std::lock_guard). */
class MINDFUL_SCOPED_CAPABILITY LockGuard
{
  public:
    explicit LockGuard(Mutex &mutex) MINDFUL_ACQUIRE(mutex)
        : _mutex(mutex)
    {
        _mutex.lock();
    }

    ~LockGuard() MINDFUL_RELEASE() { _mutex.unlock(); }

    LockGuard(const LockGuard &) = delete;
    LockGuard &operator=(const LockGuard &) = delete;

  private:
    Mutex &_mutex;
};

/**
 * Condition variable for mindful::Mutex. wait() requires the mutex
 * held and holds it again on return; write the predicate loop at the
 * call site (`while (!ready) cv.wait(mutex);`) so the analysis sees
 * every guarded read under the lock.
 */
class ConditionVariable
{
  public:
    ConditionVariable() = default;
    ConditionVariable(const ConditionVariable &) = delete;
    ConditionVariable &operator=(const ConditionVariable &) = delete;

    /** Atomically release @p mutex, block, re-acquire, return. */
    void
    wait(Mutex &mutex) MINDFUL_REQUIRES(mutex)
    {
        // Adopt the already-held native mutex for the duration of the
        // wait, then release ownership back to the caller's scope so
        // the capability bookkeeping stays balanced.
        std::unique_lock<std::mutex> native(mutex._mutex,
                                            std::adopt_lock);
        _cv.wait(native);
        native.release();
    }

    void notifyOne() { _cv.notify_one(); }
    void notifyAll() { _cv.notify_all(); }

  private:
    std::condition_variable _cv;
};

} // namespace mindful

#endif // MINDFUL_BASE_COMPILER_HH
