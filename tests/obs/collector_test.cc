/**
 * @file
 * TraceCollector tests: multi-producer ring draining with exact
 * emitted + dropped accounting, deliberate overflow via tiny rings
 * and a paused drain, hostile site names surviving JSON escaping,
 * by-name spans from the thread that started the stream, runtime
 * metric names, numeric argument slots, the run-manifest footer, and
 * incremental (bounded-memory) drain behavior.
 *
 * Rings live for their thread's lifetime and setRingCapacity only
 * affects FUTURE registrations, so every scenario that needs a small
 * ring spawns fresh producer threads instead of reusing this one.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "json_checker.hh"
#include "obs/collector.hh"
#include "obs/metrics.hh"

namespace mindful::obs {
namespace {

/** Restore default ring capacity and a stopped collector on exit. */
class CollectorFixture : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        TraceCollector::global().stop();
        TraceCollector::global().setRingCapacity(kDefaultRingSlots);
    }
};

using CollectorTest = CollectorFixture;
using CollectorStressTest = CollectorFixture;

/** Run @p spans HotSpans on a freshly registered producer thread. */
void
produce(TraceSite site, std::uint64_t spans)
{
    std::thread producer([site, spans] {
        TraceCollector::global().registerCurrentThread();
        for (std::uint64_t i = 0; i < spans; ++i) {
            HotSpan span(site);
            span.setArg(i);
        }
    });
    producer.join();
}

TEST_F(CollectorTest, StartStopRoundTripIsValidJson)
{
    auto &collector = TraceCollector::global();
    const TraceSite site = collector.site("test", "roundtrip");
    std::ostringstream os;
    collector.start(&os);
    produce(site, 10);
    CollectorTotals totals = collector.stop();
    EXPECT_EQ(totals.emitted, 10u);
    EXPECT_EQ(totals.dropped, 0u);
    JsonChecker checker(os.str());
    EXPECT_TRUE(checker.valid()) << os.str();
    EXPECT_NE(os.str().find("\"roundtrip\""), std::string::npos);
    EXPECT_NE(os.str().find("\"ph\": \"X\""), std::string::npos);
}

TEST_F(CollectorTest, PausedDrainForcesExactOverflowAccounting)
{
    auto &collector = TraceCollector::global();
    const TraceSite site = collector.site("test", "overflow");
    collector.setRingCapacity(16);
    std::ostringstream os;
    collector.start(&os);
    collector.setDrainPaused(true);
    // Let any drain iteration that began before the pause became
    // visible finish over still-empty rings, so the 16/84 split below
    // is deterministic.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    produce(site, 100);
    // Producer has quiesced; a 16-slot ring with the drain paused
    // must hold exactly 16 events and have dropped the rest.
    CollectorTotals totals = collector.stop();
    EXPECT_EQ(totals.emitted, 16u);
    EXPECT_EQ(totals.dropped, 84u);
    EXPECT_EQ(totals.emitted + totals.dropped, 100u);
    JsonChecker checker(os.str());
    EXPECT_TRUE(checker.valid()) << os.str();
}

TEST_F(CollectorTest, UnregisteredThreadsCountAsDrops)
{
    auto &collector = TraceCollector::global();
    const TraceSite site = collector.site("test", "unregistered");
    collector.start(nullptr);
    std::thread producer([site] {
        // No registerCurrentThread(): records must vanish, counted.
        for (int i = 0; i < 5; ++i)
            HotSpan span(site);
    });
    producer.join();
    CollectorTotals totals = collector.stop();
    EXPECT_EQ(totals.emitted, 0u);
    EXPECT_EQ(totals.dropped, 5u);
}

TEST_F(CollectorTest, HostileSiteNamesSurviveEscaping)
{
    auto &collector = TraceCollector::global();
    const TraceSite site = collector.site(
        "cat\"quoted\"\n", "name with \\backslash\t\x01 control");
    std::ostringstream os;
    collector.start(&os);
    produce(site, 3);
    collector.stop();
    JsonChecker checker(os.str());
    EXPECT_TRUE(checker.valid()) << os.str();
    EXPECT_NE(os.str().find("\\\"quoted\\\""), std::string::npos);
    EXPECT_NE(os.str().find("\\u0001"), std::string::npos);
}

TEST_F(CollectorTest, MainThreadTraceScopeIsEmitted)
{
    // A fresh thread that starts the stream is registered by start(),
    // so its by-name spans reach the stream instead of being dropped.
    auto &collector = TraceCollector::global();
    std::ostringstream os;
    CollectorTotals totals;
    std::thread owner([&] {
        ASSERT_FALSE(TraceCollector::currentThreadRegistered());
        collector.start(&os);
        {
            MINDFUL_TRACE_SCOPE("test", "main_scope");
        }
        totals = collector.stop();
    });
    owner.join();
    EXPECT_EQ(totals.emitted, 1u);
    EXPECT_EQ(totals.dropped, 0u);
    EXPECT_NE(os.str().find("\"main_scope\""), std::string::npos);
    JsonChecker checker(os.str());
    EXPECT_TRUE(checker.valid()) << os.str();
}

TEST_F(CollectorTest, RuntimeMetricNamesGiveOneRowEach)
{
    auto &registry = MetricRegistry::global();
    for (const char *suffix : {"a", "b", "a"}) {
        // One macro site, names built at run time: each call resolves.
        MINDFUL_METRIC_COUNT(std::string("test.runtime_name.") + suffix,
                             1);
    }
    EXPECT_EQ(registry.counter("test.runtime_name.a").total(), 2u);
    EXPECT_EQ(registry.counter("test.runtime_name.b").total(), 1u);
    std::size_t rows = 0;
    for (const MetricSample &sample : registry.snapshot())
        rows += sample.name.rfind("test.runtime_name.", 0) == 0 ? 1 : 0;
    EXPECT_EQ(rows, 2u);
}

/** The number text of member @p key, as json_checker.hh parsed it. */
std::string
numberMember(const JsonChecker &checker, const std::string &key)
{
    for (const auto &[name, number] : checker.numberMembers())
        if (name == key)
            return number;
    return "";
}

TEST_F(CollectorTest, ArgSlotsRoundTripAsJsonNumbers)
{
    auto &collector = TraceCollector::global();
    std::ostringstream os;
    collector.start(&os);
    constexpr std::uint64_t kBig = (std::uint64_t{1} << 63) + 1;
    constexpr std::int64_t kNegative = -(std::int64_t{1} << 40);
    const double third = 1.0 / 3.0;
    const double tiny = 6.02e-23;
    {
        MINDFUL_TRACE_SPAN(span, "test", "arg_slots");
        span.arg("big", kBig)
            .arg("negative", kNegative)
            .arg("third", third)
            .arg("tiny", tiny);
    }
    {
        MINDFUL_TRACE_SPAN(span, "test", "arg_nonfinite");
        span.arg("nan", std::numeric_limits<double>::quiet_NaN());
    }
    collector.stop();
    const std::string text = os.str();
    JsonChecker checker(text);
    ASSERT_TRUE(checker.valid()) << text;
    // The slots parse back as JSON numbers with their exact values.
    EXPECT_EQ(numberMember(checker, "big"), std::to_string(kBig));
    EXPECT_EQ(numberMember(checker, "negative"), std::to_string(kNegative));
    const std::string third_text = numberMember(checker, "third");
    ASSERT_FALSE(third_text.empty()) << text;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  std::strtod(third_text.c_str(), nullptr)),
              std::bit_cast<std::uint64_t>(third));
    EXPECT_EQ(std::strtod(numberMember(checker, "tiny").c_str(), nullptr),
              tiny);
    // JSON has no NaN: a non-finite slot is written as null.
    EXPECT_EQ(numberMember(checker, "nan"), "");
    EXPECT_NE(text.find("\"nan\": null"), std::string::npos);
}

TEST_F(CollectorTest, FooterCarriesRunManifestAndTotals)
{
    auto &collector = TraceCollector::global();
    const TraceSite site = collector.site("test", "manifest");
    std::ostringstream os;
    collector.start(&os);
    produce(site, 2);
    collector.stop();
    const std::string text = os.str();
    EXPECT_NE(text.find("\"manifest\""), std::string::npos);
    EXPECT_NE(text.find("\"git_sha\""), std::string::npos);
    EXPECT_NE(text.find("\"build_type\""), std::string::npos);
    EXPECT_NE(text.find("\"config_hash\""), std::string::npos);
    EXPECT_NE(text.find("\"emitted\": 2"), std::string::npos);
    EXPECT_NE(text.find("\"dropped\": 0"), std::string::npos);
}

TEST_F(CollectorTest, DrainIsIncrementalWhileProducersRun)
{
    auto &collector = TraceCollector::global();
    const TraceSite site = collector.site("test", "incremental");
    collector.start(nullptr);
    std::atomic<bool> keep_going{true};
    std::thread producer([&] {
        collector.registerCurrentThread();
        while (keep_going.load(std::memory_order_relaxed)) {
            HotSpan span(site);
            std::this_thread::sleep_for(std::chrono::microseconds(10));
        }
    });
    // Events must reach the sink while the producer is still alive —
    // the background drain, not stop(), does the bulk of the work.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (collector.emittedCount() == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_GT(collector.emittedCount(), 0u);
    keep_going.store(false, std::memory_order_relaxed);
    producer.join();
    CollectorTotals totals = collector.stop();
    EXPECT_GT(totals.emitted, 0u);
    EXPECT_EQ(totals.dropped, 0u);
}

TEST_F(CollectorStressTest, ManyProducersSmallRingsExactConservation)
{
    auto &collector = TraceCollector::global();
    const TraceSite site = collector.site("test", "stress");
    // Small rings + live drain: heavy wraparound on every producer,
    // with the drain racing the writers the whole time.
    collector.setRingCapacity(32);
    constexpr unsigned kProducers = 8;
    constexpr std::uint64_t kPerProducer = 20'000;
    std::ostringstream os;
    collector.start(&os);
    std::vector<std::thread> producers;
    for (unsigned p = 0; p < kProducers; ++p) {
        producers.emplace_back([site] {
            TraceCollector::global().registerCurrentThread();
            for (std::uint64_t i = 0; i < kPerProducer; ++i) {
                HotSpan span(site);
                span.setArg(i);
            }
        });
    }
    for (std::thread &producer : producers)
        producer.join();
    // All producers quiesced before stop(): conservation is exact.
    CollectorTotals totals = collector.stop();
    EXPECT_EQ(totals.emitted + totals.dropped,
              kProducers * kPerProducer);
    EXPECT_GT(totals.emitted, 0u);
    JsonChecker checker(os.str());
    EXPECT_TRUE(checker.valid());
}

TEST_F(CollectorTest, SiteInterningIsIdempotent)
{
    auto &collector = TraceCollector::global();
    const TraceSite a = collector.site("test", "interned");
    const TraceSite b = collector.site("test", "interned");
    EXPECT_EQ(a.id, b.id);
    const TraceSite c = collector.site("test", "other");
    EXPECT_NE(a.id, c.id);
}

TEST_F(CollectorTest, StoppedCollectorRecordsNothing)
{
    auto &collector = TraceCollector::global();
    const TraceSite site = collector.site("test", "stopped");
    const std::uint64_t before = collector.droppedSinceStart();
    produce(site, 50); // not streaming: HotSpan ctor bails immediately
    std::ostringstream os;
    collector.start(&os);
    CollectorTotals totals = collector.stop();
    EXPECT_EQ(totals.emitted, 0u);
    EXPECT_EQ(totals.dropped, 0u);
    (void)before;
}

} // namespace
} // namespace mindful::obs
