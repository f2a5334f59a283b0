#include "obs/collector.hh"

#include <charconv>
#include <chrono>
#include <cmath>
#include <ostream>

#include "base/logging.hh"
#include "obs/json.hh"
#include "obs/manifest.hh"

namespace mindful::obs {

namespace detail {

MINDFUL_ATOMIC_ROLE(once_flag)
std::atomic<bool> g_collectorStreaming{false};
MINDFUL_ATOMIC_ROLE(stat_counter)
std::atomic<std::uint64_t> g_unregisteredDrops{0};
} // namespace detail

namespace {

thread_local TraceRing *t_traceRing = nullptr;

std::chrono::steady_clock::time_point
traceEpoch()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return epoch;
}

// Touch at static-init so the epoch is process start.
const auto initTraceEpoch = traceEpoch();

/** ts/dur in microseconds with nanosecond decimals. */
void
writeTraceMicros(std::ostream &os, std::uint64_t nanos)
{
    os << nanos / 1000 << '.' << static_cast<char>('0' + nanos / 100 % 10)
       << static_cast<char>('0' + nanos / 10 % 10)
       << static_cast<char>('0' + nanos % 10);
}

/** One argument slot as a JSON number (null when not finite). */
void
writeArgValue(std::ostream &os, const PodEvent &event, std::size_t slot)
{
    const std::uint64_t bits = event.argBits[slot];
    switch (event.argTypes[slot]) {
      case PodEvent::kSigned:
        os << static_cast<std::int64_t>(bits);
        return;
      case PodEvent::kDouble: {
        // Shortest round-trip form, independent of the stream's locale
        // and precision.
        const double value = std::bit_cast<double>(bits);
        if (!std::isfinite(value)) {
            os << "null";
            return;
        }
        char buf[32];
        const auto result = std::to_chars(buf, buf + sizeof(buf), value);
        os.write(buf, result.ptr - buf);
        return;
      }
      default:
        os << bits;
    }
}

} // namespace

TraceRing *
detail::currentRing()
{
    return t_traceRing;
}

std::uint64_t
traceNowNanos()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - traceEpoch())
            .count());
}

std::uint32_t
currentThreadId()
{
    MINDFUL_ATOMIC_ROLE(stat_counter)
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t id =
        next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

TraceCollector &
TraceCollector::global()
{
    static TraceCollector collector;
    return collector;
}

TraceCollector::~TraceCollector()
{
    // Last-resort teardown (process exit with a live session): stop
    // the drain thread but skip the footer — the sink may already be
    // gone. Orderly shutdown goes through stop().
    if (_drain.joinable()) {
        detail::g_collectorStreaming.store(false,
                                           std::memory_order_release);
        _stopRequested.store(true, std::memory_order_release);
        _drain.join();
    }
}

TraceSite
TraceCollector::site(std::string_view category, std::string_view name)
{
    std::string key;
    key.reserve(category.size() + 1 + name.size());
    key.append(category).push_back('\0');
    key.append(name);
    LockGuard lock(_mutex);
    auto [it, inserted] = _siteIds.try_emplace(
        std::move(key), static_cast<std::uint32_t>(_sites.size()));
    if (inserted)
        _sites.emplace_back(category, name);
    return TraceSite{it->second};
}

void
TraceCollector::registerCurrentThread()
{
    if (t_traceRing != nullptr)
        return;
    LockGuard lock(_mutex);
    _rings.push_back(
        std::make_unique<TraceRing>(_ringCapacity, currentThreadId()));
    t_traceRing = _rings.back().get();
}

void
TraceCollector::setRingCapacity(std::size_t slots)
{
    MINDFUL_ASSERT(slots > 0, "ring capacity must be positive");
    LockGuard lock(_mutex);
    _ringCapacity = slots;
}

std::size_t
TraceCollector::ringCount() const
{
    LockGuard lock(_mutex);
    return _rings.size();
}

void
TraceCollector::start(std::ostream *os)
{
    MINDFUL_ASSERT(!streaming() && !_drain.joinable(),
                   "trace collector is already streaming");
    registerCurrentThread();
    {
        LockGuard lock(_mutex);
        _os = os;
        _firstEvent = true;
        _droppedAtStart = lockedDroppedSum();
        if (_os != nullptr)
            *_os << "{\"traceEvents\": [";
    }
    _emitted.store(0, std::memory_order_relaxed);
    _stopRequested.store(false, std::memory_order_relaxed);
    _paused.store(false, std::memory_order_relaxed);
    detail::g_collectorStreaming.store(true, std::memory_order_release);
    _drain = std::thread([this] { drainLoop(); });
}

CollectorTotals
TraceCollector::stop()
{
    if (!streaming() && !_drain.joinable())
        return {};
    detail::g_collectorStreaming.store(false, std::memory_order_release);
    _stopRequested.store(true, std::memory_order_release);
    if (_drain.joinable())
        _drain.join();
    // Final sweep, pause cleared: producers that recorded before the
    // streaming flag flipped are flushed here.
    _paused.store(false, std::memory_order_relaxed);
    drainOnce();

    CollectorTotals totals;
    totals.emitted = _emitted.load(std::memory_order_relaxed);
    LockGuard lock(_mutex);
    totals.dropped = lockedDroppedSum() - _droppedAtStart;
    if (_os != nullptr) {
        std::ostream &os = *_os;
        os << "\n], \"displayTimeUnit\": \"ms\", \"otherData\": "
              "{\"manifest\": ";
        RunManifest::current().writeJsonObject(os);
        os << ", \"emitted\": " << totals.emitted
           << ", \"dropped\": " << totals.dropped << "}}\n";
        os.flush();
        _os = nullptr;
    }
    return totals;
}

void
TraceCollector::setDrainPaused(bool paused)
{
    _paused.store(paused, std::memory_order_release);
}

std::uint64_t
TraceCollector::droppedSinceStart() const
{
    LockGuard lock(_mutex);
    return lockedDroppedSum() - _droppedAtStart;
}

void
TraceCollector::drainLoop()
{
    while (!_stopRequested.load(std::memory_order_acquire)) {
        if (!_paused.load(std::memory_order_acquire))
            drainOnce();
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
}

std::uint64_t
TraceCollector::drainOnce()
{
    LockGuard lock(_mutex);
    std::uint64_t written = 0;
    for (const auto &ring : _rings) {
        PodEvent event;
        MINDFUL_RT_LOOP("collector.drain")
        while (ring->tryPop(event)) {
            emitLocked(event, ring->threadId());
            ++written;
        }
    }
    _emitted.fetch_add(written, std::memory_order_relaxed);
    return written;
}

void
TraceCollector::emitLocked(const PodEvent &event, std::uint32_t thread_id)
{
    if (_os == nullptr)
        return; // count-only sink
    std::ostream &os = *_os;
    if (!_firstEvent)
        os << ",";
    _firstEvent = false;
    const auto &site = _sites[event.siteId];
    os << "\n  {\"name\": ";
    writeJsonEscaped(os, site.second);
    os << ", \"cat\": ";
    writeJsonEscaped(os, site.first);
    os << ", \"ph\": \"X\", \"ts\": ";
    writeTraceMicros(os, event.startNanos);
    os << ", \"dur\": ";
    writeTraceMicros(os, event.durationNanos);
    os << ", \"pid\": 1, \"tid\": " << thread_id;
    if (event.argCount > 0) {
        os << ", \"args\": {";
        for (std::size_t i = 0; i < event.argCount; ++i) {
            if (i > 0)
                os << ", ";
            writeJsonEscaped(os, event.argKeys[i]);
            os << ": ";
            writeArgValue(os, event, i);
        }
        os << "}";
    }
    os << "}";
}

std::uint64_t
TraceCollector::lockedDroppedSum() const
{
    std::uint64_t sum =
        detail::g_unregisteredDrops.load(std::memory_order_relaxed);
    for (const auto &ring : _rings)
        sum += ring->dropped();
    return sum;
}

} // namespace mindful::obs
