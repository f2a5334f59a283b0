/**
 * @file
 * Tests for logging, decibel helpers, and the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <regex>
#include <string>

#include "base/decibel.hh"
#include "base/logging.hh"
#include "base/random.hh"

namespace mindful {
namespace {

TEST(DecibelTest, RoundTrip)
{
    for (double db : {-30.0, -3.0, 0.0, 3.0, 10.0, 60.0, 80.0})
        EXPECT_NEAR(toDecibels(fromDecibels(db)), db, 1e-10);
}

TEST(DecibelTest, KnownAnchors)
{
    EXPECT_NEAR(fromDecibels(3.0), 1.995, 1e-3);
    EXPECT_DOUBLE_EQ(fromDecibels(10.0), 10.0);
    EXPECT_DOUBLE_EQ(fromDecibels(0.0), 1.0);
    // The paper's 60 dB path loss is a factor of 1e6.
    EXPECT_DOUBLE_EQ(fromDecibels(60.0), 1e6);
}

TEST(DecibelTest, DbmAnchors)
{
    EXPECT_DOUBLE_EQ(toDbm(Power::milliwatts(1.0)), 0.0);
    EXPECT_NEAR(toDbm(Power::milliwatts(100.0)), 20.0, 1e-12);
    EXPECT_NEAR(fromDbm(-30.0).inMicrowatts(), 1.0, 1e-9);
}

TEST(RngTest, DeterministicForEqualSeeds)
{
    Rng a(99), b(99);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(RngTest, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    bool differs = false;
    for (int i = 0; i < 10 && !differs; ++i)
        differs = a.bits() != b.bits();
    EXPECT_TRUE(differs);
}

TEST(RngTest, UniformRespectsRange)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        double x = rng.uniform(-2.0, 3.0);
        EXPECT_GE(x, -2.0);
        EXPECT_LT(x, 3.0);
    }
}

TEST(RngTest, UniformIntInclusiveBounds)
{
    Rng rng(6);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = rng.uniformInt(0, 3);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 3);
        saw_lo |= v == 0;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliProbability)
{
    Rng rng(9);
    int hits = 0;
    const int draws = 20000;
    for (int i = 0; i < draws; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / draws, 0.3, 0.02);
}

TEST(LoggingTest, LogLevelControlsOutput)
{
    LogLevel original = logLevel();
    setLogLevel(LogLevel::Silent);
    EXPECT_EQ(logLevel(), LogLevel::Silent);
    // Must not crash while silenced.
    MINDFUL_WARN("suppressed warning");
    MINDFUL_INFORM("suppressed info");
    setLogLevel(original);
}

TEST(LoggingTest, WarnOnceDeduplicatesByMessage)
{
    LogLevel original = logLevel();
    setLogLevel(LogLevel::Warning);
    resetWarnOnce();

    testing::internal::CaptureStderr();
    for (int i = 0; i < 5; ++i)
        MINDFUL_WARN_ONCE("adc saturated on channel ", 3);
    MINDFUL_WARN_ONCE("adc saturated on channel ", 4); // distinct text
    std::string captured = testing::internal::GetCapturedStderr();

    auto occurrences = [&captured](const std::string &needle) {
        std::size_t n = 0;
        for (std::size_t pos = captured.find(needle);
             pos != std::string::npos;
             pos = captured.find(needle, pos + 1))
            ++n;
        return n;
    };
    EXPECT_EQ(occurrences("channel 3"), 1u);
    EXPECT_EQ(occurrences("channel 4"), 1u);

    // Resetting the dedup set re-arms the message.
    resetWarnOnce();
    testing::internal::CaptureStderr();
    MINDFUL_WARN_ONCE("adc saturated on channel ", 3);
    captured = testing::internal::GetCapturedStderr();
    EXPECT_NE(captured.find("channel 3"), std::string::npos);

    resetWarnOnce();
    setLogLevel(original);
}

TEST(LoggingTest, ElapsedPrefixStampsLogLines)
{
    LogLevel original = logLevel();
    setLogLevel(LogLevel::Warning);
    EXPECT_FALSE(logElapsedPrefix());
    setLogElapsedPrefix(true);
    EXPECT_TRUE(logElapsedPrefix());

    testing::internal::CaptureStderr();
    MINDFUL_WARN("prefixed line");
    std::string captured = testing::internal::GetCapturedStderr();
    // "[  12.345s] warn: prefixed line"
    EXPECT_TRUE(std::regex_search(
        captured, std::regex(R"(\[ *[0-9]+\.[0-9]{3}s\] warn:)")))
        << captured;

    setLogElapsedPrefix(false);
    testing::internal::CaptureStderr();
    MINDFUL_WARN("bare line");
    captured = testing::internal::GetCapturedStderr();
    EXPECT_EQ(captured.rfind("warn:", 0), 0u) << captured;

    setLogLevel(original);
}

TEST(LoggingDeathTest, AssertMessageIncludesCondition)
{
    EXPECT_DEATH(MINDFUL_ASSERT(1 == 2, "math broke"),
                 "assertion failed: 1 == 2");
}

TEST(LoggingDeathTest, FatalExitsWithCodeOne)
{
    EXPECT_EXIT(MINDFUL_FATAL("bad config value ", 42),
                ::testing::ExitedWithCode(1), "bad config value 42");
}

} // namespace
} // namespace mindful
