/**
 * @file
 * By-name span tests: recording on destruction, the idle-collector
 * gate (no name built), nesting, numeric argument capture, thread ids,
 * and Chrome trace_event JSON well-formedness (validated by parsing
 * the streamed text back with a minimal JSON parser).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "json_checker.hh"
#include "obs/collector.hh"
#include "obs/metrics.hh"

namespace mindful::obs {
namespace {

/** One streamed span, read back from its trace_event line. */
struct StreamedSpan
{
    std::string name;
    std::string category;
    std::uint64_t tsNanos = 0;
    std::uint64_t durNanos = 0;
    std::uint32_t tid = 0;
};

/** "12.345" microseconds (three decimals) as exact nanoseconds. */
std::uint64_t
microsToNanos(std::string micros)
{
    micros.erase(micros.find('.'), 1);
    return std::stoull(micros);
}

/** The spans of a streamed trace, in emission order. */
std::vector<StreamedSpan>
streamedSpans(const std::string &text)
{
    static const std::regex line(
        R"re(\{"name": "([^"]*)", "cat": "([^"]*)", "ph": "X", )re"
        R"re("ts": ([0-9.]+), "dur": ([0-9.]+), "pid": 1, "tid": ([0-9]+))re");
    std::vector<StreamedSpan> spans;
    for (auto it = std::sregex_iterator(text.begin(), text.end(), line);
         it != std::sregex_iterator(); ++it) {
        const std::smatch &m = *it;
        spans.push_back({m[1], m[2], microsToNanos(m[3]),
                         microsToNanos(m[4]),
                         static_cast<std::uint32_t>(std::stoul(m[5]))});
    }
    return spans;
}

/** Streams the global collector into a string for each test. */
class StreamFixture : public ::testing::Test
{
  protected:
    void SetUp() override { TraceCollector::global().start(&_os); }

    void TearDown() override { TraceCollector::global().stop(); }

    /** Stop the stream; return its text. */
    std::string
    finish()
    {
        _totals = TraceCollector::global().stop();
        return _os.str();
    }

    std::ostringstream _os;
    CollectorTotals _totals;
};

using TraceSpanTest = StreamFixture;
using TraceJsonTest = StreamFixture;

TEST_F(TraceSpanTest, RecordsOnDestruction)
{
    {
        MINDFUL_TRACE_SPAN(span, "test", "outer");
        EXPECT_TRUE(span.active());
        EXPECT_EQ(TraceCollector::global().emittedCount(), 0u);
    }
    auto spans = streamedSpans(finish());
    EXPECT_EQ(_totals.emitted, 1u);
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].name, "outer");
    EXPECT_EQ(spans[0].category, "test");
}

TEST_F(TraceSpanTest, DisabledSessionRecordsNothing)
{
    TraceCollector::global().stop();
    int names_built = 0;
    auto runtime_name = [&names_built] {
        ++names_built;
        return std::string("ghost");
    };
    {
        MINDFUL_TRACE_SPAN(span, "test", runtime_name());
        EXPECT_FALSE(span.active());
        span.arg("k", 1.0);
    }
    // An idle collector never evaluates the name expression.
    EXPECT_EQ(names_built, 0);
    TraceCollector::global().start(&_os);
    finish();
    EXPECT_EQ(_totals.emitted, 0u);
    EXPECT_EQ(_totals.dropped, 0u);
}

TEST_F(TraceSpanTest, NestingIsExpressedByTimestampContainment)
{
    {
        MINDFUL_TRACE_SPAN(outer, "test", "outer");
        {
            MINDFUL_TRACE_SPAN(inner, "test", "inner");
        }
    }
    auto spans = streamedSpans(finish());
    ASSERT_EQ(spans.size(), 2u);
    // One ring, completion order: inner first.
    const StreamedSpan &inner = spans[0];
    const StreamedSpan &outer = spans[1];
    EXPECT_EQ(inner.name, "inner");
    EXPECT_EQ(outer.name, "outer");
    EXPECT_EQ(inner.tid, outer.tid);
    EXPECT_GE(inner.tsNanos, outer.tsNanos);
    EXPECT_LE(inner.tsNanos + inner.durNanos,
              outer.tsNanos + outer.durNanos);
}

TEST_F(TraceSpanTest, ArgsAreCaptured)
{
    {
        MINDFUL_TRACE_SPAN(span, "test", "with_args");
        span.arg("ratio", 0.5)
            .arg("count", std::uint64_t{7})
            .arg("delta", -3)
            .arg("flag", true);
    }
    const std::string text = finish();
    EXPECT_NE(text.find(R"("args": {"ratio": 0.5, "count": 7, )"
                        R"("delta": -3, "flag": 1})"),
              std::string::npos)
        << text;
}

TEST_F(TraceSpanTest, ThreadsGetDistinctIds)
{
    std::uint32_t main_id = currentThreadId();
    std::uint32_t other_id = main_id;
    std::thread worker([&other_id] { other_id = currentThreadId(); });
    worker.join();
    EXPECT_NE(main_id, other_id);
    EXPECT_EQ(main_id, currentThreadId());
}

TEST_F(TraceJsonTest, EmittedJsonParses)
{
    {
        MINDFUL_TRACE_SPAN(outer, "comm",
                           std::string("outer \"quoted\" name"));
        outer.arg("v", 1.25);
        MINDFUL_TRACE_SCOPE("accel", std::string("inner\\path\n"));
    }
    const std::string text = finish();
    JsonChecker checker(text);
    EXPECT_TRUE(checker.valid()) << text;
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(text.find("outer \\\"quoted\\\" name"), std::string::npos);
}

TEST_F(TraceJsonTest, EmptySessionStillEmitsValidJson)
{
    const std::string text = finish();
    JsonChecker checker(text);
    EXPECT_TRUE(checker.valid()) << text;
    EXPECT_EQ(_totals.emitted, 0u);
}

TEST_F(TraceJsonTest, MetricRegistryJsonParses)
{
    MetricRegistry registry;
    registry.counter("comm.qam.bit_errors").bump(3);
    registry.gauge("accel.sim.utilization").set(0.75);
    registry.histogram("core.closed_loop.loop_latency_us").observe(12.5);
    std::ostringstream os;
    registry.writeJson(os);
    JsonChecker checker(os.str());
    EXPECT_TRUE(checker.valid()) << os.str();
    EXPECT_NE(os.str().find("\"comm.qam.bit_errors\""),
              std::string::npos);
}

TEST_F(TraceJsonTest, MacroSpansRecordWhenEnabled)
{
    {
        MINDFUL_TRACE_SCOPE("test", "macro_scope");
        MINDFUL_TRACE_SPAN(span, "test", "macro_span");
        span.arg("k", std::uint64_t{1});
    }
    finish();
    EXPECT_EQ(_totals.emitted, 2u);
    EXPECT_EQ(_totals.dropped, 0u);
}

} // namespace
} // namespace mindful::obs
