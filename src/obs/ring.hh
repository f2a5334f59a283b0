/**
 * @file
 * Single-producer / single-consumer ring buffer of PodEvents.
 *
 * One ring per registered thread: the owning thread is the only
 * producer, the collector's drain thread is the only consumer, so the
 * classic two-index scheme needs no CAS. The producer publishes a
 * slot with a release store of the head index; the consumer acquires
 * the head before reading the slot and releases the tail after — the
 * slot payloads themselves are plain (non-atomic) writes, correctly
 * ordered by the index handoff.
 *
 * A full ring never blocks the producer: the event is dropped and a
 * relaxed counter incremented, so `pushed == emitted + dropped` holds
 * exactly (the accounting the collector stress test asserts). All
 * storage is allocated in the constructor, at thread-registration
 * time — tryPush is allocation- and lock-free, which is what lets
 * mindful-analyze certify call sites inside parallelFor shard roots.
 * The slots are left uninitialized, so a ring that never records
 * keeps its pages out of the resident set.
 */

#ifndef MINDFUL_OBS_RING_HH
#define MINDFUL_OBS_RING_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "base/compiler.hh"
#include "obs/event.hh"

namespace mindful::obs {

class TraceRing
{
  public:
    /** @param capacity slot count; rounded up to a power of two. */
    explicit TraceRing(std::size_t capacity, std::uint32_t thread_id)
        : _threadId(thread_id)
    {
        std::size_t pow2 = 1;
        while (pow2 < capacity)
            pow2 <<= 1;
        _mask = pow2 - 1;
        _slots = std::make_unique_for_overwrite<PodEvent[]>(pow2);
    }

    TraceRing(const TraceRing &) = delete;
    TraceRing &operator=(const TraceRing &) = delete;

    /** Producer side. Returns false (and counts a drop) when full. */
    bool
    tryPush(const PodEvent &event)
    {
        const std::size_t head = _head.load(std::memory_order_relaxed);
        const std::size_t tail = _tail.load(std::memory_order_acquire);
        if (head - tail > _mask) {
            _dropped.fetch_add(1, std::memory_order_relaxed);
            return false;
        }
        _slots[head & _mask] = event;
        _head.store(head + 1, std::memory_order_release);
        return true;
    }

    /** Consumer side. Returns false when the ring is empty. */
    bool
    tryPop(PodEvent &out)
    {
        const std::size_t tail = _tail.load(std::memory_order_relaxed);
        const std::size_t head = _head.load(std::memory_order_acquire);
        if (tail == head)
            return false;
        out = _slots[tail & _mask];
        _tail.store(tail + 1, std::memory_order_release);
        return true;
    }

    /** Events rejected because the ring was full (never reset). */
    std::uint64_t
    dropped() const
    {
        return _dropped.load(std::memory_order_relaxed);
    }

    std::size_t capacity() const { return _mask + 1; }

    /** currentThreadId() of the owning (producer) thread. */
    std::uint32_t threadId() const { return _threadId; }

  private:
    // Head and tail live on their own cache lines so the producer's
    // publishing store never false-shares with the consumer's cursor.
    MINDFUL_ATOMIC_ROLE(spsc_head)
    alignas(64) std::atomic<std::size_t> _head{0};
    MINDFUL_ATOMIC_ROLE(spsc_tail)
    alignas(64) std::atomic<std::size_t> _tail{0};
    MINDFUL_ATOMIC_ROLE(stat_counter)
    alignas(64) std::atomic<std::uint64_t> _dropped{0};
    std::size_t _mask = 0;
    std::uint32_t _threadId = 0;
    std::unique_ptr<PodEvent[]> _slots;
};

} // namespace mindful::obs

#endif // MINDFUL_OBS_RING_HH
