/**
 * @file
 * Streaming trace collector: the one span tier.
 *
 * Recording is split from formatting:
 *
 *  - each participating thread registers ONE TraceRing up front
 *    (registerCurrentThread; start() does this for its caller and the
 *    exec thread pool for its workers). Span names are interned to
 *    TraceSite ids via site();
 *  - a HotSpan records by stamping two clock reads and pushing one
 *    PodEvent (name id plus a fixed set of numeric argument slots)
 *    into its thread's ring — no lock, no allocation, no string. A
 *    full ring drops the event and counts it, so
 *    `recorded == emitted + dropped` holds exactly;
 *  - a background drain thread pops every ring and streams Chrome
 *    trace_event JSON incrementally into the sink passed to start(),
 *    so memory stays bounded for hour-long soaks. stop() joins the
 *    drain thread, sweeps the rings once more, appends the run
 *    manifest (obs/manifest.hh) plus emitted/dropped totals to the
 *    file footer, and returns those totals.
 *
 * MINDFUL_TRACE_SPAN / MINDFUL_TRACE_SCOPE are the by-name spelling of
 * the same span: while the collector is not streaming they cost one
 * relaxed load and never evaluate the name; while it streams they
 * resolve the name to a TraceSite (once per site for a string
 * literal, on every call for a name built at run time) and record a
 * HotSpan. Resolving takes a lock, so shard bodies and realtime loops
 * use a pre-resolved TraceSite with MINDFUL_HOT_SPAN instead.
 *
 * Contracts: the sink stream must outlive stop(); totals are exact
 * once producers have quiesced (joined, or parallelFor returned)
 * before stop(); spans on threads that never registered record
 * nothing but are counted as drops.
 */

#ifndef MINDFUL_OBS_COLLECTOR_HH
#define MINDFUL_OBS_COLLECTOR_HH

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/compiler.hh"
#include "obs/event.hh"
#include "obs/ring.hh"

namespace mindful::obs {

namespace detail {

/** True while the global collector streams; every span gates on one
 * relaxed load of this before touching anything else. */
MINDFUL_ATOMIC_ROLE(once_flag)
extern std::atomic<bool> g_collectorStreaming;

/** Spans constructed while streaming on a thread with no ring. */
MINDFUL_ATOMIC_ROLE(stat_counter)
extern std::atomic<std::uint64_t> g_unregisteredDrops;

/**
 * The calling thread's ring; null until registerCurrentThread().
 * Out of line on purpose: inlined reads of an extern thread_local let
 * the linker relax the TLS address add into a flag-less lea, which
 * UBSan's null check (that tests the add's flags) then misreads.
 */
TraceRing *currentRing();

inline bool
collectorStreaming()
{
    return g_collectorStreaming.load(std::memory_order_relaxed);
}

} // namespace detail

/** Interned (category, name) pair. */
struct TraceSite
{
    std::uint32_t id = 0;
};

/** stop() summary; recorded-span conservation: emitted + dropped. */
struct CollectorTotals
{
    std::uint64_t emitted = 0;
    std::uint64_t dropped = 0;
};

/** Default per-thread ring capacity (slots). */
constexpr std::size_t kDefaultRingSlots = 8192;

class TraceCollector
{
  public:
    /** The process-wide collector every span records into. */
    static TraceCollector &global();

    TraceCollector() = default;
    ~TraceCollector();
    TraceCollector(const TraceCollector &) = delete;
    TraceCollector &operator=(const TraceCollector &) = delete;

    /**
     * Intern a (category, name) pair. Idempotent; takes a lock —
     * never call it inside a shard body or realtime loop.
     */
    TraceSite site(std::string_view category, std::string_view name);

    /**
     * Give the calling thread a ring (idempotent). Allocation happens
     * here, once, so recording never does. Rings live for the
     * process; a thread keeps its ring (and its capacity) for life.
     */
    void registerCurrentThread();

    /** Whether the calling thread has a ring. */
    static bool
    currentThreadRegistered()
    {
        return detail::currentRing() != nullptr;
    }

    /** Ring capacity for FUTURE registrations (rounded to 2^n). */
    void setRingCapacity(std::size_t slots);

    /** Number of registered rings (== registered threads). */
    std::size_t ringCount() const;

    bool
    streaming() const
    {
        return detail::g_collectorStreaming.load(
            std::memory_order_acquire);
    }

    /**
     * Begin streaming into @p os (nullptr = count-only sink, for
     * overhead benchmarks). Registers the calling thread, writes the
     * trace_event header, resets the session's emitted/dropped
     * baselines, and launches the drain thread. Must not already be
     * streaming.
     */
    void start(std::ostream *os);

    /**
     * Stop streaming: joins the drain thread, performs a final sweep
     * of every ring, writes the JSON footer (run manifest + totals)
     * and returns this session's totals. Safe to call when not
     * streaming (returns zeros).
     */
    CollectorTotals stop();

    /**
     * Suspend the drain thread's sweeps (tests use this to force ring
     * overflow deterministically). stop() clears the pause so the
     * final sweep always runs.
     */
    void setDrainPaused(bool paused);

    /** Events streamed so far this session (approximate while live). */
    std::uint64_t
    emittedCount() const
    {
        return _emitted.load(std::memory_order_relaxed);
    }

    /** Drops so far this session (approximate while live). */
    std::uint64_t droppedSinceStart() const;

  private:
    void drainLoop();
    std::uint64_t drainOnce();
    void emitLocked(const PodEvent &event, std::uint32_t thread_id)
        MINDFUL_REQUIRES(_mutex);
    std::uint64_t lockedDroppedSum() const MINDFUL_REQUIRES(_mutex);

    mutable Mutex _mutex;
    std::vector<std::pair<std::string, std::string>>
        _sites MINDFUL_GUARDED_BY(_mutex);
    /** "category\0name" -> index into _sites. */
    std::map<std::string, std::uint32_t, std::less<>>
        _siteIds MINDFUL_GUARDED_BY(_mutex);
    std::vector<std::unique_ptr<TraceRing>>
        _rings MINDFUL_GUARDED_BY(_mutex);
    std::ostream *_os MINDFUL_GUARDED_BY(_mutex) = nullptr;
    bool _firstEvent MINDFUL_GUARDED_BY(_mutex) = true;
    std::size_t _ringCapacity MINDFUL_GUARDED_BY(_mutex) =
        kDefaultRingSlots;
    std::uint64_t _droppedAtStart MINDFUL_GUARDED_BY(_mutex) = 0;

    // start()/stop() are control-plane calls from one thread; the
    // drain thread itself only reads the atomics below.
    std::thread _drain;
    MINDFUL_ATOMIC_ROLE(once_flag)
    std::atomic<bool> _stopRequested{false};
    MINDFUL_ATOMIC_ROLE(once_flag)
    std::atomic<bool> _paused{false};
    MINDFUL_ATOMIC_ROLE(stat_counter)
    std::atomic<std::uint64_t> _emitted{0};
};

/**
 * RAII span. Construction is two relaxed loads (streaming gate,
 * thread ring) plus one clock read; destruction is a clock read and a
 * lock-free ring push. Inactive — and near-free — when the collector
 * is not streaming, the thread has no ring, or it was
 * default-constructed.
 */
class HotSpan
{
  public:
    HotSpan() = default;

    explicit HotSpan(TraceSite site)
    {
        if (!detail::collectorStreaming())
            return;
        _ring = detail::currentRing();
        if (_ring == nullptr) {
            detail::g_unregisteredDrops.fetch_add(
                1, std::memory_order_relaxed);
            return;
        }
        _event.siteId = site.id;
        _event.argCount = 0;
        _event.startNanos = traceNowNanos();
    }

    ~HotSpan()
    {
        if (_ring == nullptr)
            return;
        _event.durationNanos = traceNowNanos() - _event.startNanos;
        _ring->tryPush(_event);
    }

    HotSpan(const HotSpan &) = delete;
    HotSpan &operator=(const HotSpan &) = delete;

    /** Whether this span will push an event on destruction. */
    bool active() const { return _ring != nullptr; }

    /**
     * Attach a numeric argument ("args": {key: value}). @p key must
     * have static storage (a string literal): the event keeps the
     * pointer. Integers and bools keep their exact value, floating
     * point values are stored as double. Arguments beyond
     * kSpanArgSlots are ignored.
     */
    template <typename T>
    HotSpan &
    arg(const char *key, T value)
    {
        static_assert(std::is_arithmetic_v<T>,
                      "span arguments are numbers");
        if (_ring == nullptr || _event.argCount == kSpanArgSlots)
            return *this;
        const std::uint8_t slot = _event.argCount++;
        _event.argKeys[slot] = key;
        if constexpr (std::is_floating_point_v<T>) {
            _event.argTypes[slot] = PodEvent::kDouble;
            _event.argBits[slot] =
                std::bit_cast<std::uint64_t>(static_cast<double>(value));
        } else if constexpr (std::is_signed_v<T>) {
            _event.argTypes[slot] = PodEvent::kSigned;
            _event.argBits[slot] = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(value));
        } else {
            _event.argTypes[slot] = PodEvent::kUnsigned;
            _event.argBits[slot] = static_cast<std::uint64_t>(value);
        }
        return *this;
    }

    /** Attach the conventional single payload ("args": {"v": ...}). */
    HotSpan &
    setArg(std::uint64_t value)
    {
        return arg("v", value);
    }

  private:
    TraceRing *_ring = nullptr;
    PodEvent _event;
};

/** No-op stand-in the span macros degrade to under MINDFUL_OBS_DISABLED. */
class NullSpan
{
  public:
    bool active() const { return false; }

    template <typename T>
    NullSpan &
    arg(const char *, T)
    {
        static_assert(std::is_arithmetic_v<T>,
                      "span arguments are numbers");
        return *this;
    }

    template <typename V>
    NullSpan &
    setArg(const V &)
    {
        return *this;
    }
};

} // namespace mindful::obs

#ifndef MINDFUL_OBS_DISABLED

/**
 * Open a span over a pre-resolved TraceSite (shard bodies, realtime
 * loops):
 *   MINDFUL_HOT_SPAN(shard_span, site);
 *   shard_span.setArg(rows);
 */
#define MINDFUL_HOT_SPAN(var, site) ::mindful::obs::HotSpan var((site))

/**
 * Open a named span variable by name:
 *   MINDFUL_TRACE_SPAN(span, "comm", "qam.measure_ber");
 *   span.arg("symbols", n);
 */
#define MINDFUL_TRACE_SPAN(var, category, name) \
    ::mindful::obs::HotSpan var = \
        ::mindful::obs::detail::collectorStreaming() \
            ? ::mindful::obs::HotSpan(MINDFUL_OBS_RESOLVE( \
                  name, ::mindful::obs::TraceCollector::global().site( \
                            (category), (name)))) \
            : ::mindful::obs::HotSpan()

/** Open an anonymous by-name span covering the rest of the scope. */
#define MINDFUL_TRACE_SCOPE(category, name) \
    MINDFUL_TRACE_SPAN(MINDFUL_OBS_CONCAT(_mindful_span_, __LINE__), \
                       category, name)

#else

#define MINDFUL_HOT_SPAN(var, site) \
    [[maybe_unused]] ::mindful::obs::NullSpan var
#define MINDFUL_TRACE_SPAN(var, category, name) \
    [[maybe_unused]] ::mindful::obs::NullSpan var
#define MINDFUL_TRACE_SCOPE(category, name) \
    do { \
    } while (0)

#endif // MINDFUL_OBS_DISABLED

#endif // MINDFUL_OBS_COLLECTOR_HH
