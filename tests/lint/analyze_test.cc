/**
 * @file
 * mindful-analyze semantic tests: phase-1 parsing and the phase-2
 * cross-TU checks run against small in-memory fixture trees — the
 * call-graph cases the lexical checker is blind to (transitive
 * allocation, RNG engines smuggled through helpers), the unit-algebra
 * and safety-envelope rules, the suppression hatches, and an
 * end-to-end runAnalyze pass with the incremental cache.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "analyze.hh"
#include "cache.hh"

namespace fs = std::filesystem;
using namespace mindful::lint;

namespace {

/** Analyze a fixture tree of (path, content) pairs. */
std::vector<Finding>
analyze(const std::vector<std::pair<std::string, std::string>> &tree)
{
    std::vector<FileFacts> facts;
    for (const auto &[path, content] : tree)
        facts.push_back(analyzeFile(scanSource(path, content)));
    return semanticFindings(facts);
}

bool
hasFinding(const std::vector<Finding> &findings,
           const std::string &check, const std::string &fragment)
{
    for (const Finding &finding : findings) {
        if (finding.check == check &&
            finding.message.find(fragment) != std::string::npos)
            return true;
    }
    return false;
}

} // namespace

// --- hot-path purity ------------------------------------------------------

TEST(AnalyzeHotPath, TransitiveAllocationInShardBody)
{
    auto findings = analyze({{"dnn/fixture.cc", R"fix(
        std::vector<double> scratch(std::size_t n)
        {
            std::vector<double> out(n, 0.0);
            return out;
        }
        void drive(double *sink)
        {
            exec::parallelFor(4, [&](std::size_t shard) {
                auto s = scratch(shard);
                sink[shard] = s[0];
            }, "fixture.drive");
        }
    )fix"}});
    ASSERT_EQ(findings.size(), 1u) << findings.size();
    EXPECT_EQ(findings[0].check, "hot-path");
    EXPECT_EQ(findings[0].line, 4u);
    EXPECT_NE(findings[0].message.find("via scratch()"),
              std::string::npos)
        << findings[0].message;
}

TEST(AnalyzeHotPath, VendorIntrinsicsArePure)
{
    // SIMD kernels run inside shard bodies (src/dnn/gemm.cc): AVX2 and
    // NEON intrinsics are register operations and must not register as
    // opaque calls — this fixture must certify clean with no hot-ok.
    auto findings = analyze({{"dnn/fixture.cc", R"fix(
        void kernel(const float *a, float *c, std::size_t n)
        {
            exec::parallelFor(4, [&](std::size_t shard) {
                __m256 acc = _mm256_setzero_ps();
                acc = _mm256_add_ps(
                    acc, _mm256_mul_ps(_mm256_loadu_ps(a + shard),
                                       _mm256_broadcast_ss(a)));
                acc = _mm256_shuffle_ps(acc, acc,
                                        _MM_SHUFFLE(3, 2, 1, 0));
                float32x4_t neon = vaddq_f32(
                    vld1q_f32(a), vmulq_f32(vld1q_f32(a),
                                            vdupq_n_f32(a[0])));
                neon = vbslq_f32(vcltq_f32(neon, vdupq_n_f32(0.0f)),
                                 vdupq_n_f32(0.0f), neon);
                vst1q_f32(c + shard, neon);
                _mm256_storeu_ps(c + n + shard, acc);
            }, "fixture.kernel");
        }
    )fix"}});
    EXPECT_TRUE(findings.empty())
        << findings.size() << " finding(s), first: "
        << (findings.empty() ? "" : findings[0].message);
}

TEST(AnalyzeHotPath, MmMallocIsNotAnIntrinsic)
{
    // The `_mm` prefix rule must not whitelist the heap entry points.
    auto findings = analyze({{"dnn/fixture.cc", R"fix(
        void kernel(float **c)
        {
            exec::parallelFor(4, [&](std::size_t shard) {
                c[shard] = static_cast<float *>(_mm_malloc(64, 32));
                _mm_free(c[shard]);
            }, "fixture.kernel");
        }
    )fix"}});
    ASSERT_FALSE(findings.empty());
    EXPECT_EQ(findings[0].check, "hot-path");
    EXPECT_NE(findings[0].message.find("_mm_malloc"), std::string::npos)
        << findings[0].message;
}

TEST(AnalyzeHotPath, CrossFileResolutionThroughUniqueDefinition)
{
    auto findings = analyze({
        {"dnn/helper.cc", R"fix(
            void record(int value)
            {
                MINDFUL_METRIC_COUNT("fixture.calls", value);
            }
        )fix"},
        {"dnn/driver.cc", R"fix(
            void drive()
            {
                exec::parallelFor(4, [&](std::size_t shard) {
                    record(static_cast<int>(shard));
                }, "fixture.drive");
            }
        )fix"},
    });
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].check, "hot-path");
    EXPECT_EQ(findings[0].file, "dnn/helper.cc");
    EXPECT_NE(findings[0].message.find("metric"), std::string::npos);
}

TEST(AnalyzeHotPath, AmbiguousNamesStayOpaque)
{
    // `evaluate` is defined in two files: the analyzer cannot type the
    // overload set, so the call must not be followed (no finding).
    auto findings = analyze({
        {"core/a.cc", R"fix(
            double evaluate(int x) { return to_string(x).size(); }
        )fix"},
        {"core/b.cc", R"fix(
            double evaluate(double x) { return x; }
        )fix"},
        {"core/driver.cc", R"fix(
            void drive(double *sink)
            {
                exec::parallelFor(4, [&](std::size_t shard) {
                    sink[shard] = evaluate(shard);
                }, "fixture.drive");
            }
        )fix"},
    });
    EXPECT_TRUE(findings.empty()) << findings[0].message;
}

TEST(AnalyzeHotPath, NamedLambdaPassedByNameIsARoot)
{
    auto findings = analyze({{"signal/fixture.cc", R"fix(
        void drive(std::size_t n, double *sink)
        {
            auto body = [&](std::size_t shard) {
                std::vector<int> v(3, 0);
                sink[shard] = v[0];
            };
            exec::parallelFor(n, body, "fixture.byname");
        }
    )fix"}});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].check, "hot-path");
    EXPECT_EQ(findings[0].line, 5u);
}

TEST(AnalyzeHotPath, CleanKernelFixtureIsClean)
{
    auto findings = analyze({{"dnn/fixture.cc", R"fix(
        void kernel(float *out, std::size_t n)
        {
            exec::parallelFor(4, [&](std::size_t shard) {
                auto range = exec::shardRange(n, 4, shard);
                for (std::size_t i = range.begin; i < range.end; ++i)
                    out[i] = std::max(out[i], static_cast<float>(i));
            }, "fixture.kernel");
        }
    )fix"}});
    EXPECT_TRUE(findings.empty()) << findings[0].message;
}

TEST(AnalyzeHotPath, HotRecordMacrosArePermittedInShardBodies)
{
    // The MINDFUL_HOT_* macros are the certified hot-tier record
    // path (obs/handles.hh, obs/collector.hh): whitelisted by name,
    // like MINDFUL_TRACE_SPAN.
    auto findings = analyze({{"dnn/fixture.cc", R"fix(
        void kernel(float *out, std::size_t n)
        {
            exec::parallelFor(4, [&](std::size_t shard) {
                MINDFUL_HOT_SPAN(span, shard_site);
                auto range = exec::shardRange(n, 4, shard);
                for (std::size_t i = range.begin; i < range.end; ++i)
                    out[i] = static_cast<float>(i);
                MINDFUL_HOT_COUNT(shard_rows, range.end - range.begin);
                MINDFUL_HOT_RECORD(shard_us, 1.5);
            }, "fixture.kernel");
        }
    )fix"}});
    EXPECT_TRUE(findings.empty()) << findings[0].message;
}

TEST(AnalyzeHotPath, CertifiedInlineRecordBodyResolvesClean)
{
    // Direct handle records (`.bump()` in src) resolve to the inline
    // body, which the checker walks and certifies — no whitelist
    // entry, no hatch, the proof is the body itself.
    auto findings = analyze({
        {"obs/handles_fixture.cc", R"fix(
            void bump(int n)
            {
                cell += static_cast<long>(n);
            }
        )fix"},
        {"dnn/driver.cc", R"fix(
            void drive(double *sink)
            {
                exec::parallelFor(4, [&](std::size_t shard) {
                    sink[shard] = static_cast<double>(shard);
                    bump(static_cast<int>(shard));
                }, "fixture.drive");
            }
        )fix"},
    });
    EXPECT_TRUE(findings.empty()) << findings[0].message;
}

TEST(AnalyzeHotPath, RegistryLookupInShardBodyIsStillAFinding)
{
    // Handles are the only sanctioned metric path in shard bodies: a
    // by-name MetricRegistry lookup stays banned.
    auto findings = analyze({{"dnn/fixture.cc", R"fix(
        void kernel(double *out, std::size_t n)
        {
            exec::parallelFor(4, [&](std::size_t shard) {
                registry.counter("fixture.rows").add(shard);
                out[shard] = static_cast<double>(n);
            }, "fixture.kernel");
        }
    )fix"}});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].check, "hot-path");
    EXPECT_NE(findings[0].message.find(".counter() lookup"),
              std::string::npos)
        << findings[0].message;
}

TEST(AnalyzeHotPath, FlagsLocksLogsAndStringsDirectly)
{
    auto findings = analyze({{"obs/fixture.cc", R"fix(
        void drive(std::size_t n)
        {
            exec::parallelFor(n, [&](std::size_t shard) {
                std::lock_guard<std::mutex> guard(mu);
                MINDFUL_WARN("shard " + std::to_string(shard));
            }, "fixture.drive");
        }
    )fix"}});
    EXPECT_TRUE(hasFinding(findings, "hot-path", "lock"));
    EXPECT_TRUE(hasFinding(findings, "hot-path", "MINDFUL_WARN"));
    EXPECT_TRUE(hasFinding(findings, "hot-path", "to_string"));
}

// --- rng-flow -------------------------------------------------------------

TEST(AnalyzeRngFlow, SharedEngineThroughHelper)
{
    auto findings = analyze({{"comm/fixture.cc", R"fix(
        double jitter(Rng &rng, double scale)
        {
            return rng.gaussian(0.0, scale);
        }
        void shake(Rng &rng, double *sink)
        {
            exec::parallelFor(8, [&](std::size_t shard) {
                sink[shard] = jitter(rng, 1.0);
            }, "fixture.shake");
        }
    )fix"}});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].check, "rng-flow");
    EXPECT_EQ(findings[0].line, 9u);
    EXPECT_NE(findings[0].message.find("jitter"), std::string::npos);
}

TEST(AnalyzeRngFlow, SharedEngineThroughTwoHelpers)
{
    // rng -> outer(gen) -> inner(engine).uniform(): the unforked-draw
    // property must propagate through the chain to the shard body.
    auto findings = analyze({{"comm/fixture.cc", R"fix(
        double inner(Rng &engine)
        {
            return engine.uniform(0.0, 1.0);
        }
        double outer(Rng &gen)
        {
            return inner(gen);
        }
        void shake(Rng &rng, double *sink)
        {
            exec::parallelFor(8, [&](std::size_t shard) {
                sink[shard] = outer(rng);
            }, "fixture.shake");
        }
    )fix"}});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].check, "rng-flow");
    EXPECT_NE(findings[0].message.find("outer"), std::string::npos);
}

TEST(AnalyzeRngFlow, ForkedSubStreamIsClean)
{
    auto findings = analyze({{"comm/fixture.cc", R"fix(
        double jitter(Rng &rng, double scale)
        {
            return rng.gaussian(0.0, scale);
        }
        void shake(Rng &rng, double *sink)
        {
            exec::parallelFor(8, [&](std::size_t shard) {
                Rng local = rng.fork(shard);
                sink[shard] = jitter(local, 1.0);
            }, "fixture.shake");
        }
    )fix"}});
    EXPECT_TRUE(findings.empty()) << findings[0].message;
}

TEST(AnalyzeRngFlow, UnforkedDrawInByNameRootEscapesLexicalCheck)
{
    // The lexical rng-discipline check only sees lambda literals in
    // the parallelFor argument list; a named body needs phase 2.
    auto source = scanSource("comm/fixture.cc", R"fix(
        void noisy(Rng &rng, std::size_t n, double *sink)
        {
            auto body = [&](std::size_t shard) {
                sink[shard] = rng.gaussian(0.0, 1.0);
            };
            exec::parallelFor(n, body, "fixture.noisy");
        }
    )fix");
    EXPECT_TRUE(checkRngDiscipline(source).empty());
    auto findings = analyze({{"comm/fixture.cc", R"fix(
        void noisy(Rng &rng, std::size_t n, double *sink)
        {
            auto body = [&](std::size_t shard) {
                sink[shard] = rng.gaussian(0.0, 1.0);
            };
            exec::parallelFor(n, body, "fixture.noisy");
        }
    )fix"}});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].check, "rng-flow");
    EXPECT_EQ(findings[0].line, 5u);
}

// --- unit-algebra ---------------------------------------------------------

TEST(AnalyzeUnits, PowerDensityComparedToBareLiteral)
{
    auto findings = analyze({{"core/fixture.cc", R"fix(
        bool over(PowerDensity d)
        {
            return d.inMilliwattsPerSquareCentimetre() > 40.0;
        }
    )fix"}});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].check, "unit-algebra");
    EXPECT_EQ(findings[0].line, 4u);
    EXPECT_NE(findings[0].message.find("thermal::Safety"),
              std::string::npos);
}

TEST(AnalyzeUnits, EnvelopeLiteralOutsideSafetyIsFlagged)
{
    auto findings = analyze({{"core/fixture.cc", R"fix(
        const PowerDensity kLimit =
            PowerDensity::milliwattsPerSquareCentimetre(40.0);
    )fix"}});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].check, "unit-algebra");
    EXPECT_NE(findings[0].message.find("one source of truth"),
              std::string::npos);
}

TEST(AnalyzeUnits, EnvelopeLiteralInsideSafetyIsExempt)
{
    auto findings = analyze({{"thermal/safety.hh", R"fix(
        const PowerDensity kLimit =
            PowerDensity::milliwattsPerSquareCentimetre(40.0);
    )fix"}});
    EXPECT_TRUE(findings.empty());
}

TEST(AnalyzeUnits, MixedDimensionUnwrapsAcrossPlus)
{
    auto findings = analyze({{"comm/fixture.cc", R"fix(
        double broken(Power p, Frequency f)
        {
            double x = p.inWatts() + f.inHertz();
            return x;
        }
    )fix"}});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].check, "unit-algebra");
    EXPECT_NE(findings[0].message.find("inWatts"), std::string::npos);
    EXPECT_NE(findings[0].message.find("inHertz"), std::string::npos);
}

TEST(AnalyzeUnits, SameAccessorAndScalingArePermitted)
{
    auto findings = analyze({{"comm/fixture.cc", R"fix(
        double fine(Power a, Power b, Time t)
        {
            double sum = a.inWatts() + b.inWatts();
            double scaled = a.inWatts() * t.inSeconds();
            return sum + scaled;
        }
    )fix"}});
    EXPECT_TRUE(findings.empty()) << findings[0].message;
}

TEST(AnalyzeUnits, UnitOkSuppressesWithReason)
{
    auto findings = analyze({{"comm/fixture.cc", R"fix(
        double tagged(Power p, Frequency f)
        {
            // analyze: unit-ok(intentional fixture arithmetic)
            return p.inWatts() + f.inHertz();
        }
    )fix"}});
    EXPECT_TRUE(findings.empty()) << findings[0].message;
}

// --- suppression policing -------------------------------------------------

TEST(AnalyzeSuppression, HotOkAboveRootCoversWholeShard)
{
    auto findings = analyze({{"core/fixture.cc", R"fix(
        void drive(std::size_t n, double *sink)
        {
            // analyze: hot-ok(per-shard workspace is the unit of work)
            exec::parallelFor(n, [&](std::size_t shard) {
                std::vector<double> w(shard, 0.0);
                sink[shard] = w.empty() ? 0.0 : w[0];
            }, "fixture.drive");
        }
    )fix"}});
    EXPECT_TRUE(findings.empty()) << findings[0].message;
}

TEST(AnalyzeSuppression, EmptyReasonIsAFinding)
{
    auto findings = analyze({{"core/fixture.cc", R"fix(
        void quiet()
        {
            // analyze: hot-ok()
            helper();
        }
    )fix"}});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].check, "suppression");
    EXPECT_NE(findings[0].message.find("empty reason"),
              std::string::npos);
}

TEST(AnalyzeSuppression, StaleMarkerIsAFinding)
{
    auto findings = analyze({{"core/fixture.cc", R"fix(
        void quiet()
        {
            // analyze: hot-ok(suppresses nothing at all)
            helper();
        }
    )fix"}});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].check, "suppression");
    EXPECT_NE(findings[0].message.find("stale"), std::string::npos);
}

// --- end-to-end driver (cache, determinism, exit codes) -------------------

class AnalyzeRunTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        _root = fs::temp_directory_path() /
                ("mindful_analyze_test_" +
                 std::to_string(::testing::UnitTest::GetInstance()
                                    ->random_seed()) +
                 "_" + ::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name());
        fs::remove_all(_root);
        fs::create_directories(_root / "src");
    }

    void TearDown() override { fs::remove_all(_root); }

    void write(const std::string &relative, const std::string &content)
    {
        fs::path path = _root / relative;
        fs::create_directories(path.parent_path());
        std::ofstream out(path);
        out << content;
    }

    int run(AnalyzeOptions options, std::string &output)
    {
        options.root = (_root / "src").string();
        std::ostringstream os;
        std::ostringstream es;
        int rc = runAnalyze(options, os, es);
        output = os.str();
        return rc;
    }

    fs::path _root;
};

TEST_F(AnalyzeRunTest, ColdAndWarmCacheProduceIdenticalOutput)
{
    write("src/dnn/fixture.cc", R"fix(
        std::vector<double> scratch(std::size_t n)
        {
            std::vector<double> out(n, 0.0);
            return out;
        }
        void drive(double *sink)
        {
            exec::parallelFor(4, [&](std::size_t shard) {
                sink[shard] = scratch(shard)[0];
            }, "fixture.drive");
        }
    )fix");
    write("src/thermal/clean.hh",
          "struct Config { int channels = 4; };\n");

    AnalyzeOptions options;
    options.cacheDir = (_root / "cache").string();
    std::string cold;
    std::string warm;
    EXPECT_EQ(run(options, cold), 1);
    EXPECT_EQ(run(options, warm), 1);
    EXPECT_EQ(cold, warm);
    EXPECT_NE(cold.find("[hot-path]"), std::string::npos);

    // An edit must miss the cache and change the result.
    write("src/dnn/fixture.cc", "void drive() {}\n");
    std::string fixed;
    EXPECT_EQ(run(options, fixed), 0);
    EXPECT_TRUE(fixed.empty());
}

TEST_F(AnalyzeRunTest, NoSemanticRestrictsToLexicalChecks)
{
    write("src/dnn/fixture.cc", R"fix(
        void drive(double *sink)
        {
            exec::parallelFor(4, [&](std::size_t shard) {
                std::vector<double> w(shard, 0.0);
                sink[shard] = w[0];
            }, "fixture.drive");
        }
    )fix");
    AnalyzeOptions options;
    options.semantic = false;
    std::string output;
    EXPECT_EQ(run(options, output), 0) << output;
}

TEST_F(AnalyzeRunTest, FindingsAreSortedByFileLineCheck)
{
    write("src/thermal/b.hh",
          "struct Config {\n    double gridSpacing = 1.0;\n};\n");
    write("src/thermal/a.hh",
          "struct Config {\n    double peakPower = 1.0;\n};\n");
    AnalyzeOptions options;
    std::string output;
    EXPECT_EQ(run(options, output), 1);
    EXPECT_LT(output.find("thermal/a.hh"), output.find("thermal/b.hh"));
}

// --- atomics-discipline ---------------------------------------------------

namespace {

/** Count findings of one check kind. */
std::size_t
countCheck(const std::vector<Finding> &findings, const std::string &check)
{
    std::size_t n = 0;
    for (const Finding &finding : findings)
        if (finding.check == check)
            ++n;
    return n;
}

} // namespace

TEST(AnalyzeAtomics, UnannotatedFieldIsAFindingAndAnnotatedIsNot)
{
    auto findings = analyze({{"obs/fixture.hh", R"fix(
        struct Cells {
            std::atomic<int> naked{0};
            MINDFUL_ATOMIC_ROLE(stat_counter)
            std::atomic<int> counted{0};
        };
    )fix"}});
    ASSERT_EQ(countCheck(findings, "atomics-discipline"), 1u);
    EXPECT_TRUE(hasFinding(findings, "atomics-discipline",
                           "'naked' declares no publication protocol"));
}

TEST(AnalyzeAtomics, DanglingAndUnknownRolesAreFindings)
{
    auto findings = analyze({{"obs/fixture.hh", R"fix(
        MINDFUL_ATOMIC_ROLE(publish_ptr)
        struct NotAnAtomic {};
        struct Cells {
            MINDFUL_ATOMIC_ROLE(latch)
            std::atomic<int> gate{0};
        };
    )fix"}});
    EXPECT_TRUE(hasFinding(findings, "atomics-discipline",
                           "attaches to no std::atomic declaration"));
    EXPECT_TRUE(hasFinding(findings, "atomics-discipline",
                           "unknown atomic role 'latch'"));
}

TEST(AnalyzeAtomics, ConflictingRolesAcrossTUsAreAFinding)
{
    auto findings = analyze({{"obs/a.hh", R"fix(
        struct A {
            MINDFUL_ATOMIC_ROLE(stat_counter)
            std::atomic<int> _shared{0};
        };
    )fix"},
                             {"serve/b.hh", R"fix(
        struct B {
            MINDFUL_ATOMIC_ROLE(once_flag)
            std::atomic<int> _shared{0};
        };
    )fix"}});
    EXPECT_TRUE(hasFinding(findings, "atomics-discipline",
                           "conflicting role 'once_flag'"));
}

TEST(AnalyzeAtomics, PublishPtrProtocolViolations)
{
    auto findings = analyze({{"serve/fixture.hh", R"fix(
        struct Box {
            MINDFUL_ATOMIC_ROLE(publish_ptr)
            std::atomic<Entry *> _slot{nullptr};
        };
        void badStore(Box &b, Entry *e)
        {
            b._slot.store(e, std::memory_order_relaxed);
        }
        int badDeref(Box &b)
        {
            return b._slot.load(std::memory_order_relaxed)->value;
        }
        int badStarDeref(Box &b)
        {
            return *b._slot.load(std::memory_order_relaxed)->value;
        }
        void badRmw(Box &b)
        {
            b._slot.fetch_add(1, std::memory_order_acq_rel);
        }
        bool badCas(Box &b, Entry *e)
        {
            Entry *expected = nullptr;
            return b._slot.compare_exchange_strong(
                expected, e, std::memory_order_relaxed,
                std::memory_order_relaxed);
        }
    )fix"}});
    EXPECT_TRUE(hasFinding(findings, "atomics-discipline",
                           "needs memory_order_release"));
    EXPECT_TRUE(hasFinding(findings, "atomics-discipline",
                           "dereferences a relaxed load"));
    EXPECT_TRUE(hasFinding(findings, "atomics-discipline",
                           "read-modify-write on publish_ptr"));
    EXPECT_TRUE(hasFinding(findings, "atomics-discipline",
                           "release success order"));
}

TEST(AnalyzeAtomics, PublishPtrFirstWriterWinsPatternIsClean)
{
    // The MemoCache shape (src/serve/cache.{hh,cc}): acquire probe,
    // release CAS publication, relaxed pure null-check.
    auto findings = analyze({{"serve/fixture.hh", R"fix(
        struct Cache {
            MINDFUL_ATOMIC_ROLE(publish_ptr)
            std::atomic<const Entry *> _slot{nullptr};
        };
        const Entry *probe(const Cache &c)
        {
            return c._slot.load(std::memory_order_acquire);
        }
        bool publish(Cache &c, const Entry *fresh)
        {
            const Entry *expected = nullptr;
            return c._slot.compare_exchange_strong(
                expected, fresh, std::memory_order_release,
                std::memory_order_acquire);
        }
        bool empty(const Cache &c)
        {
            return c._slot.load(std::memory_order_relaxed) == nullptr;
        }
    )fix"}});
    EXPECT_EQ(countCheck(findings, "atomics-discipline"), 0u);
}

TEST(AnalyzeAtomics, SeqCstByOmissionAndConsumeAreFindings)
{
    auto findings = analyze({{"obs/fixture.hh", R"fix(
        struct Cells {
            MINDFUL_ATOMIC_ROLE(once_flag)
            std::atomic<bool> _armed{false};
        };
        bool bare(Cells &c)
        {
            return c._armed.load();
        }
        bool consume(Cells &c)
        {
            return c._armed.load(std::memory_order_consume);
        }
    )fix"}});
    EXPECT_TRUE(hasFinding(findings, "atomics-discipline",
                           "defaults to seq_cst by omission"));
    EXPECT_TRUE(hasFinding(findings, "atomics-discipline",
                           "consume is unimplementable"));
}

TEST(AnalyzeAtomics, SpscSecondWriterAndMissingAcquirePairing)
{
    auto findings = analyze({{"obs/a.cc", R"fix(
        struct Ring {
            MINDFUL_ATOMIC_ROLE(spsc_head)
            std::atomic<std::size_t> _head{0};
        };
        void push(Ring &r, std::size_t head)
        {
            r._head.store(head + 1, std::memory_order_release);
        }
        void reset(Ring &r)
        {
            r._head.store(0, std::memory_order_release);
        }
        std::size_t peek(Ring &r)
        {
            return r._head.load(std::memory_order_relaxed);
        }
    )fix"}});
    EXPECT_TRUE(hasFinding(findings, "atomics-discipline",
                           "second writer site"));
    EXPECT_TRUE(hasFinding(findings, "atomics-discipline",
                           "never observed by an acquire load"));
}

TEST(AnalyzeAtomics, SpscRingHandoffIsClean)
{
    // The TraceRing shape (src/obs/ring.hh): relaxed own-index load,
    // acquire other-index load, release publishing store.
    auto findings = analyze({{"obs/fixture.hh", R"fix(
        struct Ring {
            MINDFUL_ATOMIC_ROLE(spsc_head)
            std::atomic<std::size_t> _head{0};
            MINDFUL_ATOMIC_ROLE(spsc_tail)
            std::atomic<std::size_t> _tail{0};
        };
        bool tryPush(Ring &r)
        {
            const std::size_t head =
                r._head.load(std::memory_order_relaxed);
            const std::size_t tail =
                r._tail.load(std::memory_order_acquire);
            if (head - tail > 7)
                return false;
            r._head.store(head + 1, std::memory_order_release);
            return true;
        }
        bool tryPop(Ring &r)
        {
            const std::size_t tail =
                r._tail.load(std::memory_order_relaxed);
            const std::size_t head =
                r._head.load(std::memory_order_acquire);
            if (tail == head)
                return false;
            r._tail.store(tail + 1, std::memory_order_release);
            return true;
        }
    )fix"}});
    EXPECT_EQ(countCheck(findings, "atomics-discipline"), 0u);
}

TEST(AnalyzeAtomics, StatCounterGatesAndStrongOrdersAreFindings)
{
    auto findings = analyze({{"obs/fixture.hh", R"fix(
        struct Cells {
            MINDFUL_ATOMIC_ROLE(stat_counter)
            std::atomic<std::uint64_t> _drops{0};
        };
        void count(Cells &c)
        {
            c._drops.fetch_add(1, std::memory_order_seq_cst);
        }
        void gate(Cells &c)
        {
            if (c._drops.load(std::memory_order_relaxed) > 3)
                count(c);
        }
        std::uint64_t report(Cells &c)
        {
            return c._drops.load(std::memory_order_relaxed);
        }
    )fix"}});
    EXPECT_TRUE(hasFinding(findings, "atomics-discipline",
                           "ordering stronger than relaxed"));
    EXPECT_TRUE(hasFinding(findings, "atomics-discipline",
                           "control flow branches on stat_counter"));
    // report()'s relaxed load outside control flow is clean.
    EXPECT_EQ(countCheck(findings, "atomics-discipline"), 2u);
}

TEST(AnalyzeAtomics, OnceFlagRejectsArithmetic)
{
    auto findings = analyze({{"obs/fixture.hh", R"fix(
        struct Cells {
            MINDFUL_ATOMIC_ROLE(once_flag)
            std::atomic<int> _armed{0};
        };
        void arm(Cells &c)
        {
            c._armed.fetch_add(1, std::memory_order_relaxed);
        }
        void disarm(Cells &c)
        {
            c._armed.store(0, std::memory_order_release);
        }
        bool armed(Cells &c)
        {
            return c._armed.load(std::memory_order_acquire);
        }
    )fix"}});
    EXPECT_TRUE(hasFinding(findings, "atomics-discipline",
                           "a flag is not a counter"));
    EXPECT_EQ(countCheck(findings, "atomics-discipline"), 1u);
}

TEST(AnalyzeAtomics, SeqlockSequenceOrders)
{
    auto findings = analyze({{"core/fixture.hh", R"fix(
        struct Seq {
            MINDFUL_ATOMIC_ROLE(seqlock)
            std::atomic<std::uint32_t> _seq{0};
        };
        std::uint32_t beginRead(Seq &s)
        {
            return s._seq.load(std::memory_order_relaxed);
        }
        void beginWrite(Seq &s)
        {
            s._seq.fetch_add(1, std::memory_order_acq_rel);
        }
        void endWrite(Seq &s, std::uint32_t seq)
        {
            s._seq.store(seq + 2, std::memory_order_release);
        }
    )fix"}});
    EXPECT_TRUE(hasFinding(findings, "atomics-discipline",
                           "must be acquire"));
    EXPECT_EQ(countCheck(findings, "atomics-discipline"), 1u);
}

TEST(AnalyzeAtomics, AtomicOkSuppressesWithReason)
{
    auto findings = analyze({{"serve/fixture.cc", R"fix(
        struct Box {
            MINDFUL_ATOMIC_ROLE(publish_ptr)
            std::atomic<Entry *> _slot{nullptr};
        };
        void init(Box &b, Entry *e)
        {
            // analyze: atomic-ok(ctor runs before any reader exists)
            b._slot.store(e, std::memory_order_relaxed);
        }
    )fix"}});
    EXPECT_EQ(countCheck(findings, "atomics-discipline"), 0u);
    EXPECT_EQ(countCheck(findings, "suppression"), 0u);
}

TEST(AnalyzeAtomics, StaleAtomicOkIsPoliced)
{
    auto findings = analyze({{"serve/fixture.cc", R"fix(
        struct Box {
            MINDFUL_ATOMIC_ROLE(publish_ptr)
            std::atomic<Entry *> _slot{nullptr};
        };
        void init(Box &b, Entry *e)
        {
            // analyze: atomic-ok(suppresses nothing at all)
            b._slot.store(e, std::memory_order_release);
        }
    )fix"}});
    EXPECT_EQ(countCheck(findings, "atomics-discipline"), 0u);
    EXPECT_TRUE(hasFinding(findings, "suppression", "stale"));
}

// --- determinism-flow -----------------------------------------------------

TEST(AnalyzeDeterminism, WallClockInShardBodyThroughHelper)
{
    auto findings = analyze({{"dnn/fixture.cc", R"fix(
        std::uint64_t stamp()
        {
            return std::chrono::steady_clock::now()
                .time_since_epoch()
                .count();
        }
        void drive(double *sink)
        {
            exec::parallelFor(4, [&](std::size_t shard) {
                sink[shard] = stamp();
            }, "fixture.drive");
        }
    )fix"}});
    EXPECT_TRUE(hasFinding(findings, "determinism-flow",
                           "steady_clock::now()"));
}

TEST(AnalyzeDeterminism, UnorderedIterationAndPointerKeys)
{
    auto findings = analyze({{"dnn/fixture.cc", R"fix(
        double fold(std::unordered_map<int, double> &weights)
        {
            double sum = 0.0;
            for (auto &kv : weights)
                sum += kv.second;
            std::map<const char *, int> byPtr;
            return sum + byPtr.size();
        }
        void drive(double *sink,
                   std::unordered_map<int, double> &weights)
        {
            exec::parallelFor(4, [&](std::size_t shard) {
                sink[shard] = fold(weights);
            }, "fixture.drive");
        }
    )fix"}});
    EXPECT_TRUE(hasFinding(findings, "determinism-flow",
                           "keys a std::map by pointer"));
}

TEST(AnalyzeDeterminism, LocalUnorderedIterationInShardBody)
{
    auto findings = analyze({{"dnn/fixture.cc", R"fix(
        void drive(double *sink)
        {
            exec::parallelFor(4, [&](std::size_t shard) {
                std::unordered_map<int, double> m;
                double sum = 0.0;
                for (auto &kv : m)
                    sum += kv.second;
                sink[shard] = sum;
            }, "fixture.drive");
        }
    )fix"}});
    EXPECT_TRUE(hasFinding(findings, "determinism-flow",
                           "iterates unordered container 'm'"));
}

TEST(AnalyzeDeterminism, HazardsOutsideShardReachAreClean)
{
    auto findings = analyze({{"obs/fixture.cc", R"fix(
        std::uint64_t stamp()
        {
            return std::chrono::steady_clock::now()
                .time_since_epoch()
                .count();
        }
        void report(double *sink)
        {
            sink[0] = stamp();
        }
    )fix"}});
    EXPECT_EQ(countCheck(findings, "determinism-flow"), 0u);
}

TEST(AnalyzeDeterminism, DeterminismOkSuppressesWithReason)
{
    auto findings = analyze({{"dnn/fixture.cc", R"fix(
        void drive(double *sink)
        {
            exec::parallelFor(4, [&](std::size_t shard) {
                // analyze: determinism-ok(wall time is the measurand)
                sink[shard] = std::chrono::steady_clock::now()
                                  .time_since_epoch()
                                  .count();
            }, "fixture.drive");
        }
    )fix"}});
    EXPECT_EQ(countCheck(findings, "determinism-flow"), 0u);
    EXPECT_EQ(countCheck(findings, "suppression"), 0u);
}

// --- multi-root driver and cache schema -----------------------------------

TEST_F(AnalyzeRunTest, MultiRootLabelsPrefixFindingPaths)
{
    write("src/thermal/a.hh",
          "struct Config {\n    double peakPower = 1.0;\n};\n");
    write("tools/aux/t.hh",
          "struct Cells {\n    std::atomic<int> naked{0};\n};\n");
    AnalyzeOptions options;
    options.roots.push_back({(_root / "src").string(), "src"});
    options.roots.push_back({(_root / "tools").string(), "tools"});
    std::ostringstream os;
    std::ostringstream es;
    EXPECT_EQ(runAnalyze(options, os, es), 1) << es.str();
    EXPECT_NE(os.str().find("src/thermal/a.hh:"), std::string::npos)
        << os.str();
    EXPECT_NE(os.str().find("tools/aux/t.hh:"), std::string::npos)
        << os.str();
}

TEST_F(AnalyzeRunTest, OldSchemaCacheFallsBackToReparse)
{
    const std::string rel = "dnn/fixture.cc";
    const std::string content = R"fix(
        std::vector<double> scratch(std::size_t n)
        {
            std::vector<double> out(n, 0.0);
            return out;
        }
        void drive(double *sink)
        {
            exec::parallelFor(4, [&](std::size_t shard) {
                sink[shard] = scratch(shard)[0];
            }, "fixture.drive");
        }
    )fix";
    write("src/" + rel, content);

    AnalyzeOptions options;
    options.cacheDir = (_root / "cache").string();
    std::string cold;
    EXPECT_EQ(run(options, cold), 1);
    EXPECT_NE(cold.find("[hot-path]"), std::string::npos);

    // Forge an old-schema (v2) record at the exact key the analyzer
    // will look up, whose body claims the file has no facts at all.
    // The strict loader must reject the header and reparse — if it
    // trusted the record, the finding would vanish.
    const std::string key = factsCacheKey(rel, content);
    const fs::path forged = _root / "cache" / (key + ".facts");
    {
        std::ofstream out(forged);
        out << "mindful-analyze-cache 2\nP " << rel << "\nE\n";
    }
    std::string warm;
    EXPECT_EQ(run(options, warm), 1);
    EXPECT_EQ(cold, warm);

    // Control for the forgery mechanism itself: the same empty body
    // under the CURRENT (v3) schema header IS accepted, so the key
    // and path above really exercise the loader.
    {
        std::ofstream out(forged);
        out << "mindful-analyze-cache 3\nP " << rel << "\nE\n";
    }
    std::string forged_out;
    EXPECT_EQ(run(options, forged_out), 0) << forged_out;
}

// --- realtime-loop discipline ---------------------------------------------

TEST(AnalyzeRealtime, SleepInAnnotatedLoopIsABlockingCall)
{
    auto findings = analyze({{"obs/fixture.cc", R"fix(
        void drain(Ring *ring)
        {
            Event event;
            MINDFUL_RT_LOOP("fixture.drain")
            while (ring->tryPop(event)) {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
            }
        }
    )fix"}});
    ASSERT_EQ(countCheck(findings, "realtime-loop"), 1u);
    EXPECT_TRUE(hasFinding(findings, "realtime-loop",
                           "sleeps via std::this_thread::sleep_for()"));
    EXPECT_TRUE(hasFinding(findings, "realtime-loop",
                           "MINDFUL_RT_LOOP(\"fixture.drain\")"));
}

TEST(AnalyzeRealtime, SameLoopWithoutAnnotationIsNotARoot)
{
    // The blocker is recorded for every function but reported only
    // when reachable from an RT root — no marker, no finding.
    auto findings = analyze({{"obs/fixture.cc", R"fix(
        void drain(Ring *ring)
        {
            Event event;
            while (ring->tryPop(event)) {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
            }
        }
    )fix"}});
    EXPECT_EQ(countCheck(findings, "realtime-loop"), 0u);
}

TEST(AnalyzeRealtime, UnboundedSpinInsideStreamingLoop)
{
    auto findings = analyze({{"signal/fixture.cc", R"fix(
        void pump(Ring *ring, double *sink)
        {
            Event event;
            MINDFUL_RT_LOOP("fixture.pump")
            while (ring->tryPop(event)) {
                while (true) {
                    sink[0] = event.value;
                }
            }
        }
    )fix"}});
    ASSERT_EQ(countCheck(findings, "realtime-loop"), 1u);
    EXPECT_TRUE(hasFinding(
        findings, "realtime-loop",
        "spins in `while (true)` with no break or return"));
}

TEST(AnalyzeRealtime, SpinWithDeclaredExitIsClean)
{
    auto findings = analyze({{"signal/fixture.cc", R"fix(
        void pump(Ring *ring, double *sink)
        {
            Event event;
            MINDFUL_RT_LOOP("fixture.pump")
            while (ring->tryPop(event)) {
                while (true) {
                    sink[0] = event.value;
                    if (sink[0] > 0.0)
                        break;
                }
            }
        }
    )fix"}});
    EXPECT_EQ(countCheck(findings, "realtime-loop"), 0u);
}

TEST(AnalyzeRealtime, ColdTierTracingInStreamingLoop)
{
    auto findings = analyze({{"obs/fixture.cc", R"fix(
        void drain(Ring *ring)
        {
            Event event;
            MINDFUL_RT_LOOP("fixture.drain")
            while (ring->tryPop(event)) {
                MINDFUL_TRACE_SPAN("obs", "fixture.pop");
            }
        }
    )fix"}});
    ASSERT_EQ(countCheck(findings, "realtime-loop"), 1u);
    EXPECT_TRUE(hasFinding(
        findings, "realtime-loop",
        "starts a by-name trace span via MINDFUL_TRACE_SPAN"));
    EXPECT_TRUE(
        hasFinding(findings, "realtime-loop", "MINDFUL_HOT_"));
}

TEST(AnalyzeRealtime, HotTierHandlesAreStreamingLegal)
{
    auto findings = analyze({{"obs/fixture.cc", R"fix(
        void drain(Ring *ring, CounterHandle hits)
        {
            Event event;
            MINDFUL_RT_LOOP("fixture.drain")
            while (ring->tryPop(event)) {
                MINDFUL_HOT_COUNT(hits, 1);
            }
        }
    )fix"}});
    EXPECT_EQ(countCheck(findings, "realtime-loop"), 0u);
}

TEST(AnalyzeRealtime, LockReachableThroughUniqueCrossFileCallee)
{
    auto findings = analyze({
        {"obs/helper.cc", R"fix(
            void flushSink(Sink &sink)
            {
                std::fflush(sink.fp);
            }
        )fix"},
        {"obs/driver.cc", R"fix(
            void pump(Ring *ring, Sink &sink)
            {
                Event event;
                MINDFUL_RT_LOOP("fixture.pump")
                while (ring->tryPop(event)) {
                    flushSink(sink);
                }
            }
        )fix"},
    });
    ASSERT_EQ(countCheck(findings, "realtime-loop"), 1u);
    EXPECT_TRUE(
        hasFinding(findings, "realtime-loop", "calls fflush()"));
    for (const Finding &finding : findings)
        if (finding.check == "realtime-loop")
            EXPECT_EQ(finding.file, "obs/helper.cc");
}

TEST(AnalyzeRealtime, OpaqueCalleeFallbackTwoDefsInDifferentFiles)
{
    // Cross-TU linker pin: `flushSink` is defined in two files, so the
    // call from the streaming loop must stay opaque (assumed pure) —
    // exactly the fallback LockReachableThroughUniqueCrossFileCallee
    // shows resolving when the definition is unique.
    auto findings = analyze({
        {"obs/helper_a.cc", R"fix(
            void flushSink(Sink &sink)
            {
                std::fflush(sink.fp);
            }
        )fix"},
        {"obs/helper_b.cc", R"fix(
            void flushSink(FILE *fp)
            {
                std::fflush(fp);
            }
        )fix"},
        {"obs/driver.cc", R"fix(
            void pump(Ring *ring, Sink &sink)
            {
                Event event;
                MINDFUL_RT_LOOP("fixture.pump")
                while (ring->tryPop(event)) {
                    flushSink(sink);
                }
            }
        )fix"},
    });
    EXPECT_EQ(countCheck(findings, "realtime-loop"), 0u);
}

TEST(AnalyzeRealtime, RtOkAtTheBlockerSuppressesWithReason)
{
    auto findings = analyze({{"obs/fixture.cc", R"fix(
        void drain(Ring *ring)
        {
            Event event;
            MINDFUL_RT_LOOP("fixture.drain")
            while (ring->tryPop(event)) {
                // analyze: rt-ok(final sweep runs off the hot thread)
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
            }
        }
    )fix"}});
    EXPECT_EQ(countCheck(findings, "realtime-loop"), 0u);
    EXPECT_EQ(countCheck(findings, "suppression"), 0u);
}

TEST(AnalyzeRealtime, RtOkAtTheRootCoversTheWholeLoop)
{
    auto findings = analyze({{"obs/fixture.cc", R"fix(
        void drain(Ring *ring)
        {
            Event event;
            // analyze: rt-ok(shutdown path, not the streaming stage)
            MINDFUL_RT_LOOP("fixture.drain")
            while (ring->tryPop(event)) {
                MINDFUL_TRACE_SPAN("obs", "fixture.pop");
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
            }
        }
    )fix"}});
    EXPECT_EQ(countCheck(findings, "realtime-loop"), 0u);
    EXPECT_EQ(countCheck(findings, "suppression"), 0u);
}

TEST(AnalyzeRealtime, DanglingMarkerIsAFinding)
{
    auto findings = analyze({{"obs/fixture.cc", R"fix(
        void setup(Ring *ring)
        {
            MINDFUL_RT_LOOP("fixture.misplaced")
            int warm = 0;
            ring->prime(warm);
        }
    )fix"}});
    ASSERT_EQ(countCheck(findings, "realtime-loop"), 1u);
    EXPECT_TRUE(hasFinding(findings, "realtime-loop",
                           "attaches to no while/for loop"));
}

// --- view-invalidation ----------------------------------------------------

TEST(AnalyzeViews, GrowthBetweenBindingAndLastUse)
{
    auto findings = analyze({{"dnn/fixture.cc", R"fix(
        void fill(std::vector<double> &samples, double *sink)
        {
            std::span<double> window(samples);
            samples.push_back(1.0);
            sink[0] = window[0];
        }
    )fix"}});
    ASSERT_EQ(countCheck(findings, "view-invalidation"), 1u);
    EXPECT_TRUE(hasFinding(findings, "view-invalidation",
                           "(view-after-growth)"));
    EXPECT_TRUE(hasFinding(findings, "view-invalidation",
                           "'samples'.push_back()"));
}

TEST(AnalyzeViews, GrowthAfterLastUseIsClean)
{
    auto findings = analyze({{"dnn/fixture.cc", R"fix(
        void fill(std::vector<double> &samples, double *sink)
        {
            std::span<double> window(samples);
            sink[0] = window[0];
            samples.push_back(1.0);
        }
    )fix"}});
    EXPECT_EQ(countCheck(findings, "view-invalidation"), 0u);
}

TEST(AnalyzeViews, RawDataPointerAndMoveOfTheSource)
{
    auto findings = analyze({{"dnn/fixture.cc", R"fix(
        std::vector<double> drain(std::vector<double> &samples)
        {
            const double *raw = samples.data();
            std::vector<double> taken = std::move(samples);
            return consume(raw, taken);
        }
    )fix"}});
    ASSERT_EQ(countCheck(findings, "view-invalidation"), 1u);
    EXPECT_TRUE(hasFinding(findings, "view-invalidation",
                           "std::move('samples')"));
}

TEST(AnalyzeViews, EscapeByMutableReferenceArgument)
{
    auto findings = analyze({
        {"dnn/grower.cc", R"fix(
            void appendFrame(std::vector<double> &samples)
            {
                samples.push_back(0.0);
            }
        )fix"},
        {"dnn/user.cc", R"fix(
            void use(std::vector<double> &samples, double *sink)
            {
                std::span<double> window(samples);
                appendFrame(samples);
                sink[0] = window[0];
            }
        )fix"},
    });
    ASSERT_EQ(countCheck(findings, "view-invalidation"), 1u);
    EXPECT_TRUE(hasFinding(findings, "view-invalidation",
                           "(view-escape-by-arg)"));
    EXPECT_TRUE(hasFinding(findings, "view-invalidation",
                           "appendFrame()"));
    for (const Finding &finding : findings)
        if (finding.check == "view-invalidation")
            EXPECT_EQ(finding.file, "dnn/user.cc");
}

TEST(AnalyzeViews, ByValueCalleeCannotInvalidateTheCaller)
{
    auto findings = analyze({
        {"dnn/grower.cc", R"fix(
            void appendFrame(std::vector<double> samples)
            {
                samples.push_back(0.0);
            }
        )fix"},
        {"dnn/user.cc", R"fix(
            void use(std::vector<double> &samples, double *sink)
            {
                std::span<double> window(samples);
                appendFrame(samples);
                sink[0] = window[0];
            }
        )fix"},
    });
    EXPECT_EQ(countCheck(findings, "view-invalidation"), 0u);
}

TEST(AnalyzeViews, AmbiguousGrowerStaysOpaque)
{
    // Same opaque-callee fallback as the RT pass: two definitions of
    // `appendFrame` in different files, the call is not followed.
    auto findings = analyze({
        {"dnn/grower_a.cc", R"fix(
            void appendFrame(std::vector<double> &samples)
            {
                samples.push_back(0.0);
            }
        )fix"},
        {"dnn/grower_b.cc", R"fix(
            void appendFrame(std::vector<float> &samples)
            {
                samples.push_back(0.0f);
            }
        )fix"},
        {"dnn/user.cc", R"fix(
            void use(std::vector<double> &samples, double *sink)
            {
                std::span<double> window(samples);
                appendFrame(samples);
                sink[0] = window[0];
            }
        )fix"},
    });
    EXPECT_EQ(countCheck(findings, "view-invalidation"), 0u);
}

TEST(AnalyzeViews, TransitiveGrowthThroughAWrapper)
{
    // growingParams is a fixpoint: user -> wrapper -> grower, the
    // wrapper forwards its mutable-reference parameter.
    auto findings = analyze({
        {"dnn/grower.cc", R"fix(
            void appendFrame(std::vector<double> &samples)
            {
                samples.push_back(0.0);
            }
            void refill(std::vector<double> &buffer)
            {
                appendFrame(buffer);
            }
        )fix"},
        {"dnn/user.cc", R"fix(
            void use(std::vector<double> &samples, double *sink)
            {
                std::span<double> window(samples);
                refill(samples);
                sink[0] = window[0];
            }
        )fix"},
    });
    ASSERT_EQ(countCheck(findings, "view-invalidation"), 1u);
    EXPECT_TRUE(hasFinding(findings, "view-invalidation",
                           "refill()"));
}

TEST(AnalyzeViews, ViewOkSuppressesWithReason)
{
    auto findings = analyze({{"dnn/fixture.cc", R"fix(
        void fill(std::vector<double> &samples, double *sink)
        {
            std::span<double> window(samples);
            // analyze: view-ok(capacity reserved by the caller)
            samples.push_back(1.0);
            sink[0] = window[0];
        }
    )fix"}});
    EXPECT_EQ(countCheck(findings, "view-invalidation"), 0u);
    EXPECT_EQ(countCheck(findings, "suppression"), 0u);
}

TEST(AnalyzeViews, ViewOkSuppressesTheEscapeCall)
{
    auto findings = analyze({
        {"dnn/grower.cc", R"fix(
            void appendFrame(std::vector<double> &samples)
            {
                samples.push_back(0.0);
            }
        )fix"},
        {"dnn/user.cc", R"fix(
            void use(std::vector<double> &samples, double *sink)
            {
                std::span<double> window(samples);
                // analyze: view-ok(append never exceeds the reserve)
                appendFrame(samples);
                sink[0] = window[0];
            }
        )fix"},
    });
    EXPECT_EQ(countCheck(findings, "view-invalidation"), 0u);
    EXPECT_EQ(countCheck(findings, "suppression"), 0u);
}

// --- baseline ratchet -----------------------------------------------------

TEST_F(AnalyzeRunTest, BaselineRatchetPassesOldFindingsFailsNewOnes)
{
    write("src/thermal/cfg.hh",
          "struct Config {\n    double peakPower = 1.0;\n};\n");

    AnalyzeOptions snapshot;
    snapshot.writeBaselinePath = (_root / "baseline.txt").string();
    std::string wrote;
    EXPECT_EQ(run(snapshot, wrote), 0);

    AnalyzeOptions ratchet;
    ratchet.baselinePath = (_root / "baseline.txt").string();
    std::string clean;
    EXPECT_EQ(run(ratchet, clean), 0) << clean;
    EXPECT_TRUE(clean.empty());

    // Baseline keys carry no line numbers: shifting the finding down
    // by an edit above it must not churn the ratchet.
    write("src/thermal/cfg.hh",
          "// fixture header\n// second line\nstruct Config {\n"
          "    double peakPower = 1.0;\n};\n");
    std::string shifted;
    EXPECT_EQ(run(ratchet, shifted), 0) << shifted;

    // A finding the baseline has never seen still fails, and only the
    // new finding is printed.
    write("src/thermal/fresh.hh",
          "struct Tuning {\n    double peakPower = 2.0;\n};\n");
    std::string fresh;
    EXPECT_EQ(run(ratchet, fresh), 1);
    EXPECT_NE(fresh.find("thermal/fresh.hh"), std::string::npos)
        << fresh;
    EXPECT_EQ(fresh.find("thermal/cfg.hh"), std::string::npos) << fresh;
}
