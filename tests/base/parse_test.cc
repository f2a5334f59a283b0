/**
 * @file
 * Tests for the locale-independent strict parsers (base/parse.hh):
 * full-consume semantics, 64-bit exactness, and the thread-count
 * policy applied to every --threads flag and MINDFUL_THREADS.
 */

#include <clocale>
#include <cstdint>

#include <gtest/gtest.h>

#include "base/parse.hh"

namespace mindful {
namespace {

TEST(ParseDoubleTest, ParsesPlainValues)
{
    EXPECT_DOUBLE_EQ(*parseDouble("0"), 0.0);
    EXPECT_DOUBLE_EQ(*parseDouble("3.25"), 3.25);
    EXPECT_DOUBLE_EQ(*parseDouble("-12.5"), -12.5);
    EXPECT_DOUBLE_EQ(*parseDouble("+4.5"), 4.5);
    EXPECT_DOUBLE_EQ(*parseDouble("1e3"), 1000.0);
    EXPECT_DOUBLE_EQ(*parseDouble("2.5E-2"), 0.025);
}

TEST(ParseDoubleTest, RejectsPartialAndEmptyInput)
{
    EXPECT_FALSE(parseDouble(""));
    EXPECT_FALSE(parseDouble("twelve"));
    EXPECT_FALSE(parseDouble("1.5x"));
    EXPECT_FALSE(parseDouble("1.5 "));
    EXPECT_FALSE(parseDouble(" 1.5"));
    EXPECT_FALSE(parseDouble("1,5"));
    EXPECT_FALSE(parseDouble("--1"));
    EXPECT_FALSE(parseDouble("+-1.5"));
    EXPECT_FALSE(parseDouble("++1.5"));
    EXPECT_FALSE(parseDouble("+"));
}

TEST(ParseDoubleTest, RejectsNonFiniteValues)
{
    EXPECT_FALSE(parseDouble("inf"));
    EXPECT_FALSE(parseDouble("-inf"));
    EXPECT_FALSE(parseDouble("nan"));
    EXPECT_FALSE(parseDouble("1e999"));
}

TEST(ParseDoubleTest, IgnoresProcessLocale)
{
    // Even if a comma-decimal C locale is installed (best effort:
    // most containers only ship "C"), the parse must not change —
    // that is the whole point of from_chars under the hood.
    const char *previous = std::setlocale(LC_NUMERIC, nullptr);
    const std::string saved = previous ? previous : "C";
    std::setlocale(LC_NUMERIC, "de_DE.UTF-8");
    EXPECT_DOUBLE_EQ(*parseDouble("3.25"), 3.25);
    EXPECT_FALSE(parseDouble("3,25"));
    std::setlocale(LC_NUMERIC, saved.c_str());
}

TEST(ParseUnsignedTest, ParsesFullUint64Range)
{
    EXPECT_EQ(*parseUnsigned("0"), 0u);
    EXPECT_EQ(*parseUnsigned("1024"), 1024u);
    // 2^53 + 1: exact in uint64, silently rounded by any
    // double-mediated parse.
    EXPECT_EQ(*parseUnsigned("9007199254740993"), 9007199254740993ull);
    EXPECT_EQ(*parseUnsigned("18446744073709551615"),
              18446744073709551615ull);
}

TEST(ParseUnsignedTest, RejectsGarbage)
{
    EXPECT_FALSE(parseUnsigned(""));
    EXPECT_FALSE(parseUnsigned("-1"));
    EXPECT_FALSE(parseUnsigned("12abc"));
    EXPECT_FALSE(parseUnsigned("1.5"));
    EXPECT_FALSE(parseUnsigned(" 8"));
    EXPECT_FALSE(parseUnsigned("8 "));
    EXPECT_FALSE(parseUnsigned("18446744073709551616")); // 2^64
}

TEST(ParseThreadCountTest, AcceptsSaneCounts)
{
    EXPECT_EQ(*parseThreadCount("0"), 0u); // 0 = automatic
    EXPECT_EQ(*parseThreadCount("1"), 1u);
    EXPECT_EQ(*parseThreadCount("8"), 8u);
    EXPECT_EQ(*parseThreadCount("4096"), kMaxThreadCount);
}

TEST(ParseThreadCountTest, RejectsHostileInput)
{
    // The historical bug class: std::stoul("-1") wraps to a huge
    // count and "12abc" half-parses to 12. Both must be errors.
    EXPECT_FALSE(parseThreadCount("-1"));
    EXPECT_FALSE(parseThreadCount("garbage"));
    EXPECT_FALSE(parseThreadCount("12abc"));
    EXPECT_FALSE(parseThreadCount(""));
    EXPECT_FALSE(parseThreadCount(" 8"));
    EXPECT_FALSE(parseThreadCount("4097"));
    EXPECT_FALSE(parseThreadCount("18446744073709551616"));
    EXPECT_FALSE(parseThreadCount("1e2"));
}

} // namespace
} // namespace mindful
