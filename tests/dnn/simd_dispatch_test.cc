/**
 * @file
 * SIMD dispatch-correctness tests (src/base/cpu.hh, src/dnn/gemm.cc).
 *
 * The dispatch tier's contract is *bit-identical* output on every
 * backend: vector lanes hold distinct output elements, each element
 * accumulates its k products in ascending order in one chain, and
 * multiply/add stay unfused. These tests force every ISA compiled
 * into this binary and supported by this host (forceSimdIsa — the
 * in-process equivalent of the `MINDFUL_SIMD` override that the
 * dnn_tests_force_scalar ctest sets) and require exact float equality
 * against the scalar kernel over ragged shapes (n % lane != 0,
 * k % lane != 0, row tails), the packed-panel GEMV, strided/padded
 * im2col convolutions, zero padding against a -0.0 running sum and
 * the fused bias+ReLU epilogue — plus a naive-loop
 * reference over the register-tile edges (row blocks, column tails)
 * and two large products. The Avx512 tests cover that tier's
 * implicit-tap convolutions against forwardNaive and, byte for byte,
 * against the forced AVX2 tier; each skips on a host without AVX-512.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "base/cpu.hh"
#include "dnn/conv.hh"
#include "dnn/dense.hh"
#include "dnn/gemm.hh"

namespace mindful::dnn {
namespace {

/** All ISAs this binary + host can actually execute. */
std::vector<SimdIsa>
supportedIsas()
{
    std::vector<SimdIsa> isas{SimdIsa::Scalar};
    if (simdIsaSupported(SimdIsa::Avx2))
        isas.push_back(SimdIsa::Avx2);
    if (simdIsaSupported(SimdIsa::Avx512))
        isas.push_back(SimdIsa::Avx512);
    if (simdIsaSupported(SimdIsa::Neon))
        isas.push_back(SimdIsa::Neon);
    return isas;
}

/**
 * Restore the ISA active at construction when a test that forces ISAs
 * exits, so a `MINDFUL_SIMD` override outlives every guarded test.
 */
struct IsaGuard
{
    SimdIsa saved = activeSimdIsa();
    ~IsaGuard() { forceSimdIsa(saved); }
};

std::vector<float>
randomVec(std::size_t count, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> v(count);
    for (auto &x : v)
        x = static_cast<float>(rng.uniform(-1.0, 1.0));
    return v;
}

void
expectBitIdentical(const std::vector<float> &a,
                   const std::vector<float> &b, const char *what)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]),
                  std::bit_cast<std::uint32_t>(b[i]))
            << what << " element " << i << ": " << a[i] << " vs "
            << b[i];
}

void
runShape(std::size_t m, std::size_t n, std::size_t k,
         gemm::Epilogue epilogue)
{
    const auto a = randomVec(m * k, 101 + m);
    const auto b = randomVec(k * n, 211 + n);
    const auto bias = randomVec(m, 307 + k);

    IsaGuard guard;
    forceSimdIsa(SimdIsa::Scalar);
    std::vector<float> reference(m * n);
    gemm::biasGemm(m, n, k, a.data(), b.data(), bias.data(),
                   reference.data(), epilogue);

    for (const SimdIsa isa : supportedIsas()) {
        forceSimdIsa(isa);
        std::vector<float> out(m * n, -7.0f);
        gemm::biasGemm(m, n, k, a.data(), b.data(), bias.data(),
                       out.data(), epilogue);
        expectBitIdentical(reference, out, simdIsaName(isa));
    }
}

TEST(SimdDispatch, HostSupportIsCoherent)
{
    EXPECT_TRUE(simdIsaSupported(SimdIsa::Scalar));
    const SimdIsa detected = detectSimdIsa();
    EXPECT_TRUE(simdIsaSupported(detected));
    // The active ISA is always one the binary can execute.
    EXPECT_TRUE(simdIsaSupported(activeSimdIsa()));
#if defined(__x86_64__)
    EXPECT_FALSE(simdIsaSupported(SimdIsa::Neon));
#endif
}

TEST(SimdDispatch, NamesRoundTrip)
{
    for (const SimdIsa isa : {SimdIsa::Scalar, SimdIsa::Avx2,
                              SimdIsa::Avx512, SimdIsa::Neon}) {
        SimdIsa parsed;
        ASSERT_TRUE(parseSimdIsaName(simdIsaName(isa), parsed));
        EXPECT_EQ(parsed, isa);
    }
    SimdIsa parsed;
    EXPECT_FALSE(parseSimdIsaName("", parsed));
    EXPECT_FALSE(parseSimdIsaName("AVX2", parsed));
    EXPECT_FALSE(parseSimdIsaName("avx512f", parsed));
    EXPECT_FALSE(parseSimdIsaName("sse2", parsed));
}

TEST(SimdDispatch, ForceSelectsTheKernel)
{
    IsaGuard guard;
    forceSimdIsa(SimdIsa::Scalar);
    EXPECT_EQ(activeSimdIsa(), SimdIsa::Scalar);
    const SimdIsa best = detectSimdIsa();
    forceSimdIsa(best);
    EXPECT_EQ(activeSimdIsa(), best);
}

TEST(SimdDispatch, GemmRaggedTailsBitIdentical)
{
    // n sweeps across the 16/8-wide tile boundaries and odd tails;
    // k crosses the 8-wide GEMV block; m crosses the panel height.
    for (const std::size_t n : {2u, 7u, 8u, 9u, 15u, 16u, 17u, 33u})
        runShape(5, n, 13, gemm::Epilogue::None);
    for (const std::size_t m : {1u, 3u, 8u, 9u})
        runShape(m, 19, 27, gemm::Epilogue::None);
    for (const std::size_t k : {1u, 7u, 8u, 9u, 24u, 31u})
        runShape(6, 21, k, gemm::Epilogue::None);
}

/**
 * Naive C = epilogue(A * B + bias): one ascending-k chain per
 * element, with multiply and add as separate statements so nothing
 * can contract them into an FMA — the contract every kernel meets.
 */
std::vector<float>
referenceGemm(std::size_t m, std::size_t n, std::size_t k,
              const std::vector<float> &a, const std::vector<float> &b,
              const std::vector<float> &bias, bool relu)
{
    std::vector<float> c(m * n);
    for (std::size_t row = 0; row < m; ++row) {
        for (std::size_t col = 0; col < n; ++col) {
            float acc = bias[row];
            for (std::size_t kk = 0; kk < k; ++kk) {
                const float product = a[row * k + kk] * b[kk * n + col];
                acc += product;
            }
            c[row * n + col] = relu ? std::max(acc, 0.0f) : acc;
        }
    }
    return c;
}

TEST(SimdDispatch, RegisterTilesBitIdenticalToReference)
{
    // m crosses the kRowBlock-row register tile (full blocks plus
    // every leftover-row count), n % 16 covers each column tail the
    // kernels special-case, and the last two shapes are large
    // products with leftover rows past the last whole block.
    struct GemmShape
    {
        std::size_t m, n, k;
    };
    std::vector<GemmShape> shapes;
    for (const std::size_t m :
         {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 13u, 16u, 17u, 31u})
        for (const std::size_t tail : {0u, 1u, 7u, 8u, 9u, 15u})
            shapes.push_back({m, 32 + tail, 11});
    shapes.push_back({31, 512 + 15, 1030});
    shapes.push_back({17, 1024 + 9, 500});

    IsaGuard guard;
    for (const GemmShape &s : shapes) {
        const auto a = randomVec(s.m * s.k, 401 + s.m);
        const auto b = randomVec(s.k * s.n, 503 + s.n);
        const auto bias = randomVec(s.m, 601 + s.k);
        for (const bool relu : {false, true}) {
            const auto reference =
                referenceGemm(s.m, s.n, s.k, a, b, bias, relu);
            const auto epilogue =
                relu ? gemm::Epilogue::Relu : gemm::Epilogue::None;
            for (const SimdIsa isa : supportedIsas()) {
                forceSimdIsa(isa);
                std::vector<float> out(s.m * s.n, -7.0f);
                gemm::biasGemm(s.m, s.n, s.k, a.data(), b.data(),
                               bias.data(), out.data(), epilogue);
                SCOPED_TRACE(testing::Message()
                             << "m=" << s.m << " n=" << s.n
                             << " k=" << s.k << " relu=" << relu);
                expectBitIdentical(reference, out, simdIsaName(isa));
            }
        }
    }
}

TEST(SimdDispatch, FusedReluBitIdentical)
{
    for (const std::size_t n : {2u, 9u, 16u, 31u})
        runShape(7, n, 23, gemm::Epilogue::Relu);
}

/** Row-major [m x k] weights in gemm::packedGemv's panel layout. */
std::vector<float>
packPanels(std::size_t m, std::size_t k, const std::vector<float> &a)
{
    std::vector<float> panels(gemm::packedSize(m, k), 0.0f);
    for (std::size_t row = 0; row < m; ++row)
        for (std::size_t col = 0; col < k; ++col)
            panels[gemm::packedIndex(row, col, k)] = a[row * k + col];
    return panels;
}

void
runPackedGemv(std::size_t m, std::size_t k)
{
    const auto a = randomVec(m * k, 701 + m);
    const auto x = randomVec(k, 809 + k);
    const auto bias = randomVec(m, 907 + m);
    const auto reference = referenceGemm(m, 1, k, a, x, bias, false);
    const auto panels = packPanels(m, k, a);

    IsaGuard guard;
    for (const SimdIsa isa : supportedIsas()) {
        forceSimdIsa(isa);
        // One sentinel past the end: only the m real rows are stored.
        std::vector<float> out(m + 1, -7.0f);
        gemm::packedGemv(m, k, panels.data(), x.data(), bias.data(),
                         out.data());
        SCOPED_TRACE(testing::Message() << "m=" << m << " k=" << k);
        EXPECT_EQ(out[m], -7.0f) << simdIsaName(isa);
        out.pop_back();
        expectBitIdentical(reference, out, simdIsaName(isa));
    }
}

TEST(SimdDispatch, GemvBitIdentical)
{
    // The dense-layer shape through the packed panels: m crosses the
    // 8-row panel and the four-panel pass (33 leaves one panel of one
    // row over), k runs from one column up.
    for (const std::size_t m : {1u, 4u, 7u, 8u, 9u, 31u, 32u, 33u, 64u, 65u})
        for (const std::size_t k : {1u, 5u, 8u, 16u, 23u})
            runPackedGemv(m, k);
}

TEST(SimdDispatch, ReluTieKeepsNegativeZeroOnEveryIsa)
{
    // acc == -0.0 at the ReLU: std::max(acc, 0.0f) keeps -0.0 (the
    // comparison is false), and each vector epilogue must do the
    // same. +0.0 weights against *negative* inputs give -0.0
    // products, so a -0.0 bias accumulator stays -0.0 on every lane
    // (-0 + -0 = -0; a +0 product would flip it to +0).
    const std::size_t m = 9, k = 8;
    std::vector<float> a(m * k, 0.0f);
    std::vector<float> b(k, -0.5f);
    std::vector<float> bias(m, -0.0f);

    IsaGuard guard;
    for (const SimdIsa isa : supportedIsas()) {
        forceSimdIsa(isa);
        std::vector<float> out(m, 1.0f);
        gemm::biasGemm(m, 1, k, a.data(), b.data(), bias.data(),
                       out.data(), gemm::Epilogue::Relu);
        for (std::size_t i = 0; i < m; ++i)
            EXPECT_EQ(std::bit_cast<std::uint32_t>(out[i]),
                      std::bit_cast<std::uint32_t>(-0.0f))
                << simdIsaName(isa) << " row " << i;
        std::vector<float> wide(m * 24, 1.0f);
        std::vector<float> bwide(k * 24, -0.5f);
        gemm::biasGemm(m, 24, k, a.data(), bwide.data(), bias.data(),
                       wide.data(), gemm::Epilogue::Relu);
        for (std::size_t i = 0; i < wide.size(); ++i)
            EXPECT_EQ(std::bit_cast<std::uint32_t>(wide[i]),
                      std::bit_cast<std::uint32_t>(-0.0f))
                << simdIsaName(isa) << " element " << i;
    }
}

TEST(SimdDispatch, StridedConvBitIdenticalAcrossIsas)
{
    // Strided, padded conv: the im2col patch matrix has ragged n
    // (out_h * out_w) and interior zero blocks.
    Conv2dLayer conv(3, 5, 3, 3, 2, Padding::Same);
    Rng rng(23);
    conv.initializeWeights(rng);
    for (std::size_t i = 0; i < conv.biases().size(); ++i)
        conv.biases()[i] = 0.02f * static_cast<float>(i) - 0.03f;
    Tensor x(Shape{3, 17, 13});
    Rng xr(29);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(xr.uniform(-1.0, 1.0));

    const Tensor naive = conv.forwardNaive(x);
    IsaGuard guard;
    for (const SimdIsa isa : supportedIsas()) {
        forceSimdIsa(isa);
        const Tensor out = conv.forward(x);
        ASSERT_EQ(out.shape(), naive.shape());
        for (std::size_t i = 0; i < out.size(); ++i)
            ASSERT_EQ(std::bit_cast<std::uint32_t>(out[i]),
                      std::bit_cast<std::uint32_t>(naive[i]))
                << simdIsaName(isa) << " element " << i;
    }
}

TEST(SimdDispatch, ConvZeroPaddingKeepsNegativeZeroSumOnEveryIsa)
{
    // All weights +0.0, bias -0.0, input -0.5: every input tap adds a
    // -0.0 product and keeps the sum -0.0, every padding tap adds
    // +0.0 * +0.0 and turns it +0.0. So on a 4x4 "same" map the four
    // interior outputs are -0.0 and the twelve border outputs +0.0, in
    // the naive loop and on every GEMM route alike.
    Conv2dLayer conv(1, 1, 3, 3, 1, Padding::Same);
    conv.materialize();
    std::fill(conv.weights().begin(), conv.weights().end(), 0.0f);
    conv.biases()[0] = -0.0f;
    Tensor x(Shape{1, 4, 4});
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = -0.5f;

    const Tensor naive = conv.forwardNaive(x);
    for (std::size_t y = 0; y < 4; ++y)
        for (std::size_t xx = 0; xx < 4; ++xx) {
            const bool border = y == 0 || y == 3 || xx == 0 || xx == 3;
            EXPECT_EQ(std::bit_cast<std::uint32_t>(naive[y * 4 + xx]),
                      std::bit_cast<std::uint32_t>(border ? 0.0f : -0.0f))
                << "naive (" << y << ", " << xx << ")";
        }
    IsaGuard guard;
    for (const SimdIsa isa : supportedIsas()) {
        forceSimdIsa(isa);
        const Tensor out = conv.forward(x);
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(std::bit_cast<std::uint32_t>(out[i]),
                      std::bit_cast<std::uint32_t>(naive[i]))
                << simdIsaName(isa) << " element " << i;
    }
}

TEST(SimdDispatch, DenseLayerBitIdenticalAcrossIsasAndThreads)
{
    DenseLayer layer(512, 770); // not multiples of the panel height
    Rng rng(31);
    layer.initializeWeights(rng);
    for (std::size_t i = 0; i < layer.biases().size(); ++i)
        layer.biases()[i] = 0.01f * static_cast<float>(i % 13) - 0.05f;
    Tensor x(Shape{512});
    Rng xr(37);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(xr.uniform(-1.0, 1.0));

    const Tensor naive = layer.forwardNaive(x);
    IsaGuard guard;
    for (const SimdIsa isa : supportedIsas()) {
        forceSimdIsa(isa);
        const Tensor out = layer.forward(x);
        for (std::size_t i = 0; i < out.size(); ++i)
            ASSERT_EQ(std::bit_cast<std::uint32_t>(out[i]),
                      std::bit_cast<std::uint32_t>(naive[i]))
                << simdIsaName(isa) << " element " << i;
    }
}

/** Skip the calling test on a host or build without the avx512 tier. */
#define SKIP_WITHOUT_AVX512() \
    do { \
        if (!simdIsaSupported(SimdIsa::Avx512)) \
            GTEST_SKIP() << "avx512 tier not compiled in or CPU lacks " \
                            "AVX-512F"; \
    } while (0)

TEST(SimdDispatch, Avx512IsNamedPreferredAndForceable)
{
    SKIP_WITHOUT_AVX512();
    EXPECT_STREQ(simdIsaName(SimdIsa::Avx512), "avx512");
    SimdIsa parsed;
    ASSERT_TRUE(parseSimdIsaName("avx512", parsed));
    EXPECT_EQ(parsed, SimdIsa::Avx512);
    // avx512 > avx2 > neon > scalar.
    EXPECT_EQ(detectSimdIsa(), SimdIsa::Avx512);

    IsaGuard guard;
    forceSimdIsa(SimdIsa::Avx512);
    EXPECT_EQ(activeSimdIsa(), SimdIsa::Avx512);
    // The AVX2 kernels stay reachable on an AVX-512 host.
    forceSimdIsa(SimdIsa::Avx2);
    EXPECT_EQ(activeSimdIsa(), SimdIsa::Avx2);
}

/**
 * The ISA a fresh process resolves with MINDFUL_SIMD=@p value, read in
 * a threadsafe-style death-test child: it re-executes this binary, so
 * activeSimdIsa() resolves anew from the environment. The parent's
 * MINDFUL_SIMD is restored afterwards.
 */
void
expectEnvResolves(const char *value, SimdIsa expected)
{
    const char *saved_env = std::getenv("MINDFUL_SIMD");
    const std::optional<std::string> saved =
        saved_env != nullptr ? std::optional<std::string>(saved_env)
                             : std::nullopt;
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ::setenv("MINDFUL_SIMD", value, 1);
    EXPECT_EXIT(std::exit(activeSimdIsa() == expected ? 0 : 1),
                ::testing::ExitedWithCode(0), "")
        << "MINDFUL_SIMD=" << value;
    if (saved)
        ::setenv("MINDFUL_SIMD", saved->c_str(), 1);
    else
        ::unsetenv("MINDFUL_SIMD");
}

TEST(SimdDispatchDeathTest, EnvOverridePinsAvx512AndAvx2)
{
    SKIP_WITHOUT_AVX512();
    expectEnvResolves("avx512", SimdIsa::Avx512);
    expectEnvResolves("avx2", SimdIsa::Avx2);
}

/** Byte-compare two float vectors (NaN payloads and zero signs too). */
void
expectSameBytes(const std::vector<float> &a, const std::vector<float> &b,
                const char *what)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]),
                  std::bit_cast<std::uint32_t>(b[i]))
            << what << " element " << i;
}

/** Deterministic input in [-1, 1). */
Tensor
randomInput(const Shape &shape, std::uint64_t seed)
{
    Tensor x(shape);
    Rng rng(seed);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    return x;
}

/**
 * randomInput with NaN, +-inf and -0.0 planted all around the border
 * of every plane: the first and last row and column, which the top,
 * bottom, left and right taps read next to a masked lane.
 */
Tensor
borderedInput(const Shape &shape, std::uint64_t seed)
{
    Tensor x = randomInput(shape, seed);
    const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(),
                              -0.0f};
    std::size_t next = 0;
    auto plant = [&](std::size_t c, std::size_t y, std::size_t col) {
        x.at(c, y, col) = specials[next++ % std::size(specials)];
    };
    for (std::size_t c = 0; c < shape[0]; ++c) {
        for (std::size_t y = 0; y < shape[1]; ++y) {
            plant(c, y, 0);
            plant(c, y, shape[2] - 1);
        }
        for (std::size_t col = 0; col < shape[2]; ++col) {
            plant(c, 0, col);
            plant(c, shape[1] - 1, col);
        }
    }
    return x;
}

/** Conv2dLayer::forward under @p isa, as a flat vector. */
std::vector<float>
forwardUnder(SimdIsa isa, const Conv2dLayer &conv, const Tensor &x)
{
    forceSimdIsa(isa);
    const Tensor out = conv.forward(x);
    return {out.data(), out.data() + out.size()};
}

struct ConvCase
{
    std::size_t in_ch, out_ch, kh, kw;
    Padding padding;
    Shape input;
};

/**
 * Shifted-tap convs: every Same stride-1 conv, and Valid ones with a
 * one-column kernel. DN-CNN(256)'s stem and the first and last stage
 * of each dense block, then map, channel and kernel edges.
 */
const std::vector<ConvCase> &
shiftedCases()
{
    static const std::vector<ConvCase> cases = {
        {1, 16, 3, 3, Padding::Same, {1, 256, 16}},
        {16, 16, 3, 3, Padding::Same, {16, 64, 8}},
        {64, 16, 3, 3, Padding::Same, {64, 64, 8}},
        {80, 16, 3, 3, Padding::Same, {80, 32, 4}},
        {128, 16, 3, 3, Padding::Same, {128, 32, 4}},
        // One-row and one-column maps; n < 32 and ragged n.
        {3, 8, 3, 3, Padding::Same, {3, 1, 40}},
        {3, 8, 3, 3, Padding::Same, {3, 37, 1}},
        {2, 5, 3, 3, Padding::Same, {2, 1, 1}},
        {4, 8, 3, 3, Padding::Same, {4, 3, 7}},
        {4, 9, 3, 3, Padding::Same, {4, 13, 11}},
        // m not a multiple of 8: one row, 7, 13 and 21.
        {5, 1, 3, 3, Padding::Same, {5, 9, 9}},
        {5, 7, 3, 3, Padding::Same, {5, 17, 6}},
        {5, 13, 3, 3, Padding::Same, {5, 8, 12}},
        {2, 21, 3, 3, Padding::Same, {2, 10, 33}},
        // Even, wide, tall, rectangular and oversized kernels; a
        // width above 32 columns.
        {3, 8, 2, 4, Padding::Same, {3, 9, 10}},
        {2, 8, 1, 7, Padding::Same, {2, 5, 40}},
        {2, 8, 5, 5, Padding::Same, {2, 11, 35}},
        {2, 8, 7, 3, Padding::Same, {2, 2, 6}},
        {2, 8, 3, 3, Padding::Same, {2, 6, 70}},
        {3, 8, 3, 1, Padding::Valid, {3, 9, 7}},
        // 81 taps: above the implicit-tap limit, so im2col runs.
        {2, 8, 9, 9, Padding::Same, {2, 12, 12}},
    };
    return cases;
}

Conv2dLayer
makeConv(const ConvCase &cc, std::uint64_t seed)
{
    Conv2dLayer conv(cc.in_ch, cc.out_ch, cc.kh, cc.kw, 1, cc.padding);
    Rng rng(seed);
    conv.initializeWeights(rng);
    for (std::size_t i = 0; i < conv.biases().size(); ++i)
        conv.biases()[i] = 0.03f * static_cast<float>(i % 7) - 0.1f;
    return conv;
}

TEST(SimdDispatch, Avx512ImplicitTapsMatchNaiveAndAvx2)
{
    SKIP_WITHOUT_AVX512();
    IsaGuard guard;
    for (const ConvCase &cc : shiftedCases()) {
        SCOPED_TRACE(testing::Message()
                     << cc.in_ch << "->" << cc.out_ch << " k" << cc.kh
                     << "x" << cc.kw << " on " << cc.input[1] << "x"
                     << cc.input[2]);
        const Conv2dLayer conv = makeConv(cc, 41 + cc.out_ch);
        const Tensor x = randomInput(cc.input, 43 + cc.in_ch);
        const Tensor naive = conv.forwardNaive(x);
        const std::vector<float> wide = forwardUnder(SimdIsa::Avx512, conv, x);
        expectSameBytes({naive.data(), naive.data() + naive.size()}, wide,
                        "naive vs avx512");
        expectSameBytes(forwardUnder(SimdIsa::Avx2, conv, x), wide,
                        "avx2 vs avx512");
    }
}

TEST(SimdDispatch, Avx512ImplicitTapsKeepBorderSpecials)
{
    // NaN, +-inf and -0.0 on every plane border: a masked lane must
    // contribute exactly the +0.0f im2col writes, whatever sits at the
    // address it skips. Compared with the AVX2 im2col route: equal
    // bits, or NaN on both sides. A NaN's sign and payload are not
    // part of the contract: when both operands of an add are NaN, x86
    // returns the first, and the AVX2 route's scalar column tail lets
    // the compiler order that commutative add either way.
    SKIP_WITHOUT_AVX512();
    IsaGuard guard;
    std::size_t nans = 0;
    for (const ConvCase &cc : shiftedCases()) {
        SCOPED_TRACE(testing::Message()
                     << cc.in_ch << "->" << cc.out_ch << " k" << cc.kh
                     << "x" << cc.kw << " on " << cc.input[1] << "x"
                     << cc.input[2]);
        const Conv2dLayer conv = makeConv(cc, 47 + cc.out_ch);
        const Tensor x = borderedInput(cc.input, 53 + cc.in_ch);
        const std::vector<float> avx2 = forwardUnder(SimdIsa::Avx2, conv, x);
        const std::vector<float> wide =
            forwardUnder(SimdIsa::Avx512, conv, x);
        ASSERT_EQ(avx2.size(), wide.size());
        for (std::size_t i = 0; i < wide.size(); ++i) {
            if (std::isnan(avx2[i]) && std::isnan(wide[i])) {
                ++nans;
                continue;
            }
            ASSERT_EQ(std::bit_cast<std::uint32_t>(avx2[i]),
                      std::bit_cast<std::uint32_t>(wide[i]))
                << "element " << i;
        }
    }
    // The border NaNs reach the outputs next to them.
    EXPECT_GT(nans, 0u);
}

TEST(SimdDispatch, Avx512FusedReluKeepsNegativeZero)
{
    // +0.0 weights against negative inputs give -0.0 products, so a
    // -0.0 bias stays -0.0 at every interior position, and the fused
    // ReLU must keep it; a border position also adds +0.0 * +0.0
    // padding products and becomes +0.0. The conv runs through
    // forwardInto with the ReLU fused, as DenseStage2dLayer::forward
    // writes its grown channels, and must match the AVX2 route byte
    // for byte.
    SKIP_WITHOUT_AVX512();
    const std::size_t channels = 5, growth = 11, h = 9, w = 7;
    Conv2dLayer conv(channels, growth, 3, 3, 1, Padding::Same);
    Rng rng(59);
    conv.initializeWeights(rng);
    std::fill(conv.weights().begin(), conv.weights().end(), 0.0f);
    std::fill(conv.biases().begin(), conv.biases().end(), -0.0f);
    Tensor x(Shape{channels, h, w});
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = -0.5f;

    IsaGuard guard;
    std::vector<float> avx2(growth * h * w, 7.0f);
    std::vector<float> wide(growth * h * w, 9.0f);
    forceSimdIsa(SimdIsa::Avx2);
    conv.forwardInto(x, avx2.data(), /*fuse_relu=*/true);
    forceSimdIsa(SimdIsa::Avx512);
    conv.forwardInto(x, wide.data(), /*fuse_relu=*/true);
    expectSameBytes(avx2, wide, "avx2 vs avx512");
    for (std::size_t oc = 0; oc < growth; ++oc)
        for (std::size_t y = 1; y + 1 < h; ++y)
            for (std::size_t col = 1; col + 1 < w; ++col)
                ASSERT_EQ(std::bit_cast<std::uint32_t>(
                              wide[(oc * h + y) * w + col]),
                          std::bit_cast<std::uint32_t>(-0.0f))
                    << "channel " << oc << " at " << y << "," << col;
}

// Defined last so it also sees whether every guarded test above
// restored the override.
TEST(SimdDispatch, EnvOverrideNamesTheActiveIsa)
{
    const char *env = std::getenv("MINDFUL_SIMD");
    if (env == nullptr || *env == '\0') {
        EXPECT_EQ(activeSimdIsa(), detectSimdIsa());
        return;
    }
    SimdIsa named;
    ASSERT_TRUE(parseSimdIsaName(env, named)) << env;
    EXPECT_EQ(activeSimdIsa(), named) << "MINDFUL_SIMD=" << env;
}

} // namespace
} // namespace mindful::dnn
