/**
 * @file
 * Lexical checker tests: each check runs against small inline
 * fixtures, plus end-to-end runAnalyze passes over a temporary tree
 * exercising the allowlist and its ratchet.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "analyze.hh"
#include "lint.hh"

namespace fs = std::filesystem;
using namespace mindful::lint;

namespace {

std::vector<Finding>
unitFindings(const std::string &content)
{
    return checkUnitSafety(scanSource("thermal/fixture.hh", content));
}

} // namespace

TEST(LintWords, DimensionVocabulary)
{
    EXPECT_TRUE(isDimensionWord("power"));
    EXPECT_TRUE(isDimensionWord("spacing"));
    EXPECT_TRUE(isDimensionWord("mw"));
    EXPECT_FALSE(isDimensionWord("channels"));

    EXPECT_TRUE(impliesDimension("gridSpacing"));
    EXPECT_TRUE(impliesDimension("peak_power_mw"));
    EXPECT_TRUE(impliesDimension("domainWidth"));
    // A dimensionless hint anywhere in the name vetoes the match.
    EXPECT_FALSE(impliesDimension("powerRatio"));
    EXPECT_FALSE(impliesDimension("bitErrorRate"));
    EXPECT_FALSE(impliesDimension("sensingAreaScale"));
    EXPECT_FALSE(impliesDimension("ebN0Db"));
    EXPECT_FALSE(impliesDimension("channelCount"));
}

TEST(LintUnitSafety, FlagsPublicRawDoubleField)
{
    auto findings = unitFindings(R"(
        struct TissueProperties
        {
            double conductivity = 0.51;
        };
    )");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].check, "unit-safety");
    EXPECT_EQ(findings[0].line, 4u);
    EXPECT_NE(findings[0].message.find("conductivity"), std::string::npos);
}

TEST(LintUnitSafety, FlagsPublicFunctionReturningRawDouble)
{
    auto findings = unitFindings(R"(
        class Solver
        {
          public:
            double penetrationDepth() const;
        };
    )");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("penetrationDepth"),
              std::string::npos);
}

TEST(LintUnitSafety, FlagsRawDoubleParameter)
{
    auto findings = unitFindings(R"(
        namespace mindful {
        void configure(double domain_width_mm, int channels);
        }
    )");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("domain_width_mm"),
              std::string::npos);
}

TEST(LintUnitSafety, SkipsPrivateMembersAndFunctionBodies)
{
    auto findings = unitFindings(R"(
        class Solver
        {
          public:
            void step();
          private:
            double _power = 0.0;
        };
        inline void helper()
        {
            double local_power = 3.0;
            (void)local_power;
        }
    )");
    EXPECT_TRUE(findings.empty());
}

TEST(LintUnitSafety, SkipsDimensionlessNames)
{
    auto findings = unitFindings(R"(
        struct Budget
        {
            double couplingEfficiency = 0.1;
            double pathLossDb = 40.0;
            double areaScale = 1.0;
        };
    )");
    EXPECT_TRUE(findings.empty());
}

TEST(LintUnitSafety, RawOkOnSameOrPreviousLineSuppresses)
{
    auto findings = unitFindings(R"(
        struct TissueProperties
        {
            double perfusionRate = 0.017; // lint: raw-ok(1/s; no Quantity)
            // lint: raw-ok(literature quotes this raw)
            double bloodDensity = 1050.0;
        };
    )");
    EXPECT_TRUE(findings.empty());
}

TEST(LintUnitSafety, RawOkWithEmptyReasonIsItselfAFinding)
{
    auto findings = unitFindings(R"(
        struct TissueProperties
        {
            double conductivity = 0.51; // lint: raw-ok()
        };
    )");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("non-empty reason"),
              std::string::npos);
}

TEST(LintUnitSafety, StaleRawOkIsAFinding)
{
    auto findings = unitFindings(R"(
        struct TissueProperties
        {
            // lint: raw-ok(this no longer suppresses anything)
            int channels = 1024;
        };
    )");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("stale raw-ok"), std::string::npos);
}

TEST(LintLogging, FlagsDirectOutputAndStdio)
{
    auto source = scanSource("comm/fixture.cc", R"(
        #include <iostream>
        void report()
        {
            std::cout << "hello\n";
            std::fprintf(stderr, "%d", 3);
        }
    )");
    auto findings = checkLoggingIdiom(source);
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_EQ(findings[0].check, "logging-idiom");
    EXPECT_NE(findings[0].message.find("cout"), std::string::npos);
    EXPECT_NE(findings[1].message.find("fprintf"), std::string::npos);
}

TEST(LintLogging, IgnoresTokensInsideStringsAndComments)
{
    auto source = scanSource("comm/fixture.cc", R"(
        // printf-style formatting is described here: cout
        const char *kDoc = "use std::cout for nothing";
    )");
    EXPECT_TRUE(checkLoggingIdiom(source).empty());
}

// --- lexer hardening ------------------------------------------------------

TEST(LintLexer, RawStringContentsAreNotTokens)
{
    auto source = scanSource("comm/fixture.cc",
                             "const char *kQuery =\n"
                             "    R\"(std::cout << rand())\";\n"
                             "const char *kDelimited =\n"
                             "    R\"sql(select \")\" from t)sql\";\n");
    EXPECT_TRUE(checkLoggingIdiom(source).empty());
    EXPECT_TRUE(checkRngDiscipline(source).empty());
}

TEST(LintLexer, RawStringNewlinesKeepLineNumbersAligned)
{
    auto source = scanSource("comm/fixture.cc",
                             "const char *kBlock = R\"(line\n"
                             "two\n"
                             "three)\";\n"
                             "std::cout << kBlock;\n");
    auto findings = checkLoggingIdiom(source);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 4u);
}

TEST(LintLexer, DigitSeparatorsLexAsOneNumber)
{
    auto source = scanSource("comm/fixture.cc",
                             "int samples = 1'000'000;\n"
                             "double rate = 2'500.75;\n");
    bool found = false;
    for (const Token &token : source.tokens)
        found = found || token.text == "1'000'000";
    EXPECT_TRUE(found);
}

TEST(LintLexer, BackslashContinuationExtendsLineComment)
{
    // The continuation glues the next physical line onto the comment,
    // so the cout there is commentary, not code.
    auto source = scanSource("comm/fixture.cc",
                             "// this comment continues \\\n"
                             "std::cout << 1;\n"
                             "int live = 2;\n");
    EXPECT_TRUE(checkLoggingIdiom(source).empty());
    bool found = false;
    for (const Token &token : source.tokens)
        found = found || token.text == "live";
    EXPECT_TRUE(found);
}

TEST(LintLexer, PreprocessorDirectivesEmitNoTokens)
{
    // Macro *definitions* are not analyzable source; a multi-line
    // define (continuations) must vanish entirely, and the marker
    // comment after a directive must still register.
    auto source = scanSource("comm/fixture.cc",
                             "#define NOISY(x) \\\n"
                             "    std::cout << (x)\n"
                             "#include <iostream> // lint: raw-ok(why)\n"
                             "int live = 3;\n");
    EXPECT_TRUE(checkLoggingIdiom(source).empty());
    EXPECT_EQ(source.rawOk.count(3), 1u);
    bool found = false;
    for (const Token &token : source.tokens)
        found = found || token.text == "live";
    EXPECT_TRUE(found);
}

TEST(LintLexer, Utf8BomIsSkippedBeforeTheFirstToken)
{
    // Without the skip the BOM lexes as three junk punctuation tokens
    // and clears line_start, so the first-line directive would leak
    // its tokens into the stream.
    auto source = scanSource("comm/fixture.cc",
                             "\xEF\xBB\xBF#include <iostream>\n"
                             "std::cout << 1;\n");
    auto findings = checkLoggingIdiom(source);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 2u);
    EXPECT_EQ(source.tokens.front().text, "std");
}

TEST(LintLexer, CrlfEndingsKeepLineNumbersAligned)
{
    auto source = scanSource("thermal/fixture.hh",
                             "struct Config {\r\n"
                             "    double gridSpacing = 1.0;\r\n"
                             "};\r\n");
    auto findings = checkUnitSafety(source);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 2u);
}

TEST(LintLexer, CrlfBackslashContinuationSplicesTheLine)
{
    // Windows endings: `\` + CRLF is one continuation both inside a
    // directive (the cout stays part of the #define) and between
    // tokens, and the marker on the spliced comment still lands on
    // its physical line.
    auto source = scanSource("comm/fixture.cc",
                             "#define NOISY(x) \\\r\n"
                             "    std::cout << (x)\r\n"
                             "// continues \\\r\n"
                             "std::cout << 2;\r\n"
                             "int live = 5;\r\n");
    EXPECT_TRUE(checkLoggingIdiom(source).empty());
    bool found = false;
    for (const Token &token : source.tokens)
        found = found || token.text == "live";
    EXPECT_TRUE(found);
}

TEST(LintRng, FlagsRandAndRandomDevice)
{
    auto source = scanSource("ni/fixture.cc", R"(
        #include <random>
        int seedy()
        {
            std::random_device rd;
            return rand() % 10 + static_cast<int>(rd());
        }
    )");
    auto findings = checkRngDiscipline(source);
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_EQ(findings[0].check, "rng-discipline");
}

TEST(LintRng, FlagsSharedEngineAcrossShards)
{
    auto source = scanSource("comm/fixture.cc", R"(
        void simulate(Rng &rng)
        {
            exec::parallelFor(16, [&](std::size_t shard) {
                sink(rng.gaussian(0.0, 1.0));
            });
        }
    )");
    auto findings = checkRngDiscipline(source);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("fork"), std::string::npos);
}

TEST(LintRng, ForkedEngineInsideShardIsClean)
{
    auto source = scanSource("comm/fixture.cc", R"(
        void simulate(Rng &rng)
        {
            exec::parallelFor(16, [&](std::size_t shard) {
                Rng local = rng.fork(shard);
                sink(local.gaussian(0.0, 1.0));
            });
        }
    )");
    EXPECT_TRUE(checkRngDiscipline(source).empty());
}

TEST(LintRng, DrawOutsideParallelCallIsClean)
{
    auto source = scanSource("comm/fixture.cc", R"(
        double sample(Rng &rng)
        {
            return rng.gaussian(0.0, 1.0);
        }
    )");
    EXPECT_TRUE(checkRngDiscipline(source).empty());
}

TEST(LintAllowlist, ParsesEntriesAndRejectsMalformedLines)
{
    std::vector<Finding> findings;
    auto entries = parseAllowlist(
        "# comment\n"
        "\n"
        "thermal/bioheat.hh : migration staged\n"
        "comm/wpt.hh\n"
        "ni/afe.hh :\n",
        "allowlist.txt", findings);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].file, "thermal/bioheat.hh");
    EXPECT_EQ(entries[0].reason, "migration staged");
    // Both the reason-less path and the colon-less path are findings.
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_EQ(findings[0].check, "allowlist");
}

TEST(LintAllowlist, SuppressesListedFileAndFlagsStaleEntry)
{
    std::vector<Finding> findings{
        {"thermal/bioheat.hh", 10, "unit-safety", "raw double"},
        {"comm/wpt.hh", 5, "logging-idiom", "cout"},
    };
    std::vector<AllowlistEntry> entries{
        {"thermal/bioheat.hh", "staged", 3},
        {"ni/afe.hh", "stale by now", 4},
    };
    auto kept = applyAllowlist(findings, entries, "allowlist.txt");
    // bioheat suppressed; the logging finding survives (the allowlist
    // only covers unit-safety); the afe entry is stale.
    ASSERT_EQ(kept.size(), 2u);
    EXPECT_EQ(kept[0].check, "logging-idiom");
    EXPECT_EQ(kept[1].check, "allowlist");
    EXPECT_NE(kept[1].message.find("stale entry 'ni/afe.hh'"),
              std::string::npos);
    EXPECT_EQ(kept[1].line, 4u);
}

// --- end-to-end over a temporary tree ------------------------------------

class LintRunTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        _root = fs::temp_directory_path() /
                ("mindful_lint_test_" +
                 std::to_string(::testing::UnitTest::GetInstance()
                                    ->random_seed()) +
                 "_" + ::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name());
        fs::remove_all(_root);
        fs::create_directories(_root / "src" / "thermal");
    }

    void TearDown() override { fs::remove_all(_root); }

    void write(const std::string &relative, const std::string &content)
    {
        fs::path path = _root / relative;
        fs::create_directories(path.parent_path());
        std::ofstream out(path);
        out << content;
    }

    int run(const std::string &allowlist, std::string &output)
    {
        AnalyzeOptions options;
        options.roots.push_back({(_root / "src").string(), ""});
        if (!allowlist.empty())
            options.allowlistPath = (_root / allowlist).string();
        std::ostringstream os;
        std::ostringstream es;
        int rc = runAnalyze(options, os, es);
        output = os.str() + es.str();
        return rc;
    }

    fs::path _root;
};

TEST_F(LintRunTest, CleanTreeExitsZero)
{
    write("src/thermal/good.hh",
          "struct Config { int channels = 4; };\n");
    std::string output;
    EXPECT_EQ(run("", output), 0);
    EXPECT_TRUE(output.empty());
}

TEST_F(LintRunTest, FindingFormatsAsFileLineCheckMessage)
{
    write("src/thermal/bad.hh",
          "struct Config {\n    double gridSpacing = 1.0;\n};\n");
    std::string output;
    EXPECT_EQ(run("", output), 1);
    EXPECT_NE(output.find("thermal/bad.hh:2: [unit-safety]"),
              std::string::npos);
}

TEST_F(LintRunTest, AllowlistedFilePassesAndStaleEntryFails)
{
    write("src/thermal/bad.hh",
          "struct Config {\n    double gridSpacing = 1.0;\n};\n");
    write("allow.txt", "thermal/bad.hh : conversion staged\n");
    std::string output;
    EXPECT_EQ(run("allow.txt", output), 0) << output;

    // The ratchet: fix the file but leave the entry -> the stale
    // entry itself fails the run.
    write("src/thermal/bad.hh", "struct Config { int channels = 4; };\n");
    EXPECT_EQ(run("allow.txt", output), 1);
    EXPECT_NE(output.find("stale entry 'thermal/bad.hh'"),
              std::string::npos);
}

TEST_F(LintRunTest, UnitCheckOnlyCoversPhysicsHeaders)
{
    // Raw doubles in exec/ (not a physics dir) and in a .cc file are
    // out of scope for unit-safety.
    write("src/exec/pool.hh",
          "struct Stats { double busyDurationUs = 0.0; };\n");
    write("src/thermal/solver.cc",
          "static double peak_power = 0.0;\n");
    std::string output;
    EXPECT_EQ(run("", output), 0) << output;
}
