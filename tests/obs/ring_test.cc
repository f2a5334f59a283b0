/**
 * @file
 * TraceRing SPSC tests: overflow drop accounting, index wraparound,
 * and the conservation law the collector's totals depend on —
 * popped + dropped == produced, exactly, with FIFO order preserved.
 */

#include <atomic>
#include <cstdint>
#include <thread>

#include <gtest/gtest.h>

#include "obs/ring.hh"

namespace mindful::obs {
namespace {

PodEvent
numbered(std::uint64_t seq)
{
    PodEvent event{};
    event.argBits[0] = seq;
    return event;
}

TEST(TraceRingTest, OverflowDropsInsteadOfOverwriting)
{
    TraceRing ring(8, 1);
    ASSERT_EQ(ring.capacity(), 8u);
    std::uint64_t accepted = 0;
    for (std::uint64_t i = 0; i < 20; ++i)
        accepted += ring.tryPush(numbered(i)) ? 1 : 0;
    EXPECT_EQ(accepted, 8u);
    EXPECT_EQ(ring.dropped(), 12u);

    // The oldest events survive, in order; the overflow was rejected
    // at the producer, never overwritten under the consumer.
    PodEvent out;
    for (std::uint64_t i = 0; i < 8; ++i) {
        ASSERT_TRUE(ring.tryPop(out));
        EXPECT_EQ(out.argBits[0], i);
    }
    EXPECT_FALSE(ring.tryPop(out));
}

TEST(TraceRingTest, WraparoundConservesEveryEvent)
{
    // Push far past capacity with interleaved drains so head and tail
    // wrap the 4-slot index space many times over. Draining only every
    // 5th push overruns the 4 slots once per cycle, so both branches
    // of the conservation law (popped and dropped) stay exercised.
    TraceRing ring(4, 1);
    const std::uint64_t produced = 1000;
    std::uint64_t popped = 0;
    std::uint64_t prev = 0;
    bool first = true;
    PodEvent out;
    auto drain = [&] {
        while (ring.tryPop(out)) {
            if (!first)
                EXPECT_GT(out.argBits[0], prev);
            prev = out.argBits[0];
            first = false;
            ++popped;
        }
    };
    for (std::uint64_t i = 0; i < produced; ++i) {
        ring.tryPush(numbered(i));
        if (i % 5 == 0)
            drain();
    }
    drain();
    EXPECT_EQ(popped + ring.dropped(), produced);
    EXPECT_GT(popped, 0u);
    EXPECT_GT(ring.dropped(), 0u);
}

TEST(TraceRingTest, ConcurrentHandoffConservation)
{
    // One real producer thread against one consumer thread — the
    // deployment shape. Monotonic sequence numbers prove no event is
    // duplicated or reordered across the index handoff; conservation
    // proves none is lost.
    TraceRing ring(64, 7);
    const std::uint64_t produced = 100000;
    std::uint64_t popped = 0;
    std::uint64_t prev = 0;
    bool first = true;
    std::atomic<bool> done{false};

    std::thread consumer([&] {
        PodEvent out;
        for (;;) {
            if (ring.tryPop(out)) {
                if (!first)
                    EXPECT_GT(out.argBits[0], prev);
                prev = out.argBits[0];
                first = false;
                ++popped;
                continue;
            }
            if (done.load(std::memory_order_acquire)) {
                // Final sweep after the producer quiesced.
                if (!ring.tryPop(out))
                    break;
                if (!first)
                    EXPECT_GT(out.argBits[0], prev);
                prev = out.argBits[0];
                first = false;
                ++popped;
            }
        }
    });

    for (std::uint64_t i = 0; i < produced; ++i)
        ring.tryPush(numbered(i));
    done.store(true, std::memory_order_release);
    consumer.join();

    EXPECT_EQ(popped + ring.dropped(), produced);
}

} // namespace
} // namespace mindful::obs
