/**
 * @file
 * MINDFUL_OBS_DISABLED build test. This file is compiled into its own
 * executable with the macro defined (see tests/CMakeLists.txt), so it
 * verifies both that instrumented code still compiles in that
 * configuration and that every MINDFUL_TRACE_* / MINDFUL_METRIC_* /
 * MINDFUL_HOT_* macro degrades to a genuine no-op: nothing reaches
 * the metric registry or the trace collector even when both are
 * explicitly enabled.
 */

#ifndef MINDFUL_OBS_DISABLED
#error "this test must be built with -DMINDFUL_OBS_DISABLED"
#endif

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "obs/collector.hh"
#include "obs/handles.hh"
#include "obs/metrics.hh"

namespace mindful::obs {
namespace {

TEST(ObsDisabledTest, TraceMacrosRecordNothing)
{
    auto &collector = TraceCollector::global();
    collector.start(nullptr);
    {
        MINDFUL_TRACE_SCOPE("test", "scope");
        MINDFUL_TRACE_SPAN(span, "test", std::string("span"));
        // The null span keeps the instrumented call sites compiling.
        span.arg("ratio", 0.5)
            .arg("count", std::uint64_t{7})
            .arg("flag", true);
        EXPECT_FALSE(span.active());
    }
    CollectorTotals totals = collector.stop();
    EXPECT_EQ(totals.emitted, 0u);
    EXPECT_EQ(totals.dropped, 0u);
}

TEST(ObsDisabledTest, MetricMacrosRegisterNothing)
{
    MetricRegistry::global().clear();
    MINDFUL_METRIC_COUNT("disabled.count", 3);
    MINDFUL_METRIC_GAUGE("disabled.gauge", 1.5);
    MINDFUL_METRIC_RECORD("disabled.hist", 2.5);
    EXPECT_EQ(MetricRegistry::global().size(), 0u);
    EXPECT_FALSE(MetricRegistry::global().contains("disabled.count"));
}

TEST(ObsDisabledTest, HotSpanMacroRecordsNothingWhileStreaming)
{
    auto &collector = TraceCollector::global();
    [[maybe_unused]] const TraceSite site =
        collector.site("disabled", "hot_span");
    collector.start(nullptr);
    {
        // Expands to a NullSpan: compiles, records nothing.
        MINDFUL_HOT_SPAN(span, site);
        span.setArg(std::uint64_t{7});
        EXPECT_FALSE(span.active());
    }
    CollectorTotals totals = collector.stop();
    EXPECT_EQ(totals.emitted, 0u);
    EXPECT_EQ(totals.dropped, 0u);
}

TEST(ObsDisabledTest, HotMetricMacrosRecordNothing)
{
    MetricRegistry::global().setEnabled(true);
    CounterHandle counter =
        MetricRegistry::global().counter("disabled.hot_count");
    HistogramHandle histogram =
        MetricRegistry::global().histogram("disabled.hot_hist");
    MINDFUL_HOT_COUNT(counter, 5);
    MINDFUL_HOT_RECORD(histogram, 2.5);
    EXPECT_EQ(counter.total(), 0u);
    EXPECT_EQ(histogram.count(), 0u);
    // Macro arguments are not evaluated at all in this configuration.
    std::uint64_t evaluations = 0;
    MINDFUL_HOT_COUNT(counter, ++evaluations);
    MINDFUL_HOT_RECORD(histogram, static_cast<double>(++evaluations));
    EXPECT_EQ(evaluations, 0u);
}

TEST(ObsDisabledTest, DirectApiStillWorks)
{
    // Only the macros are compiled out; explicit use of the classes
    // (e.g. the bench harness writing its A/B gauges) keeps working.
    MetricRegistry registry;
    registry.counter("explicit.count").bump(2);
    EXPECT_EQ(registry.counter("explicit.count").total(), 2u);
}

} // namespace
} // namespace mindful::obs
