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
 * k % lane != 0, row tails), GEMV (n == 1), strided/padded im2col
 * convolutions and the fused bias+ReLU epilogue — plus a naive-loop
 * reference over the register-tile edges (row blocks, column tails)
 * and two large products.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
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
    for (const SimdIsa isa :
         {SimdIsa::Scalar, SimdIsa::Avx2, SimdIsa::Neon}) {
        SimdIsa parsed;
        ASSERT_TRUE(parseSimdIsaName(simdIsaName(isa), parsed));
        EXPECT_EQ(parsed, isa);
    }
    SimdIsa parsed;
    EXPECT_FALSE(parseSimdIsaName("", parsed));
    EXPECT_FALSE(parseSimdIsaName("AVX2", parsed));
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

TEST(SimdDispatch, GemvBitIdentical)
{
    // The dense-layer shape: n == 1, rows vectorized in panels with
    // transposed weight blocks. Ragged m and k exercise both tails.
    for (const std::size_t m : {1u, 4u, 7u, 8u, 9u, 64u, 65u})
        for (const std::size_t k : {1u, 5u, 8u, 16u, 23u})
            runShape(m, 1, k, gemm::Epilogue::None);
    runShape(65, 1, 23, gemm::Epilogue::Relu);
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
