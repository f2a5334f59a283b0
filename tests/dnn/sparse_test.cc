/**
 * @file
 * Structured-sparsity tests (src/dnn/sparse.hh and the channel-dropout
 * wiring through DenseLayer / Conv2dLayer / Network).
 *
 * The contract under test: a layer with an input-dropout mask
 * installed produces *bit-identical* output to the dense reference
 * (forwardNaive) evaluated over the same input with the dropped
 * units zeroed — for both the column-pruned path (density above
 * sparse::kCsrDensityThreshold) and the CSR-slab path (below it),
 * under random masks and across thread counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/optimization.hh"
#include "dnn/conv.hh"
#include "dnn/dense.hh"
#include "dnn/network.hh"
#include "dnn/sparse.hh"
#include "exec/thread_pool.hh"

namespace mindful::dnn {
namespace {

Tensor
randomTensor(const Shape &shape, std::uint64_t seed)
{
    Tensor x(shape);
    Rng rng(seed);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    return x;
}

/** Random mask with exactly @p active of @p units set. */
std::vector<std::uint8_t>
randomMask(std::size_t units, std::size_t active, std::uint64_t seed)
{
    std::vector<std::uint8_t> mask(units, 0);
    std::fill(mask.begin(),
              mask.begin() + static_cast<std::ptrdiff_t>(active), 1);
    Rng rng(seed);
    for (std::size_t i = units - 1; i > 0; --i) {
        const auto j = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(i)));
        std::swap(mask[i], mask[j]);
    }
    return mask;
}

/** Copy of @p x with the masked units zeroed, @p unit_stride each. */
Tensor
maskedInput(const Tensor &x, const std::vector<std::uint8_t> &mask,
            std::size_t unit_stride)
{
    Tensor out = x;
    for (std::size_t u = 0; u < mask.size(); ++u)
        if (mask[u] == 0)
            std::fill(out.data() + u * unit_stride,
                      out.data() + (u + 1) * unit_stride, 0.0f);
    return out;
}

void
expectIdentical(const Tensor &a, const Tensor &b)
{
    ASSERT_EQ(a.shape(), b.shape());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << "element " << i;
}

// --- sparse kernels directly ---------------------------------------------

TEST(SlabCsr, RoundTripAndCounts)
{
    // 3x8 with a hole pattern; slab width 4 forces two slabs.
    const std::vector<float> dense = {
        1, 0, 2, 0, 0, 0, 3, 0, //
        0, 0, 0, 0, 0, 0, 0, 0, //
        4, 5, 0, 0, 0, 0, 0, 6, //
    };
    auto csr = sparse::SlabCsrMatrix::fromDense(dense.data(), 3, 8,
                                                nullptr, 4);
    EXPECT_EQ(csr.rows(), 3u);
    EXPECT_EQ(csr.cols(), 8u);
    EXPECT_EQ(csr.nnz(), 6u);
    EXPECT_EQ(csr.slabCount(), 2u);
    EXPECT_DOUBLE_EQ(csr.density(), 6.0 / 24.0);

    const std::vector<float> x = {1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<float> y(3, -1.0f);
    csr.multiply(1, x.data(), nullptr, y.data(),
                 gemm::Epilogue::None);
    EXPECT_EQ(y[0], 1 * 1 + 2 * 3 + 3 * 7);
    EXPECT_EQ(y[1], 0.0f);
    EXPECT_EQ(y[2], 4 * 1 + 5 * 2 + 6 * 8);
}

TEST(SlabCsr, MatchesDenseChainOverManySlabs)
{
    // k = 1000 at the default slab width = 4 slabs; equality with the
    // dense ascending-k chain must be exact, not approximate.
    const std::size_t m = 17, k = 1000;
    Rng rng(41);
    std::vector<float> a(m * k);
    for (auto &v : a)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    const auto mask = randomMask(k, k / 3, 43);
    std::vector<float> x(k);
    for (auto &v : x)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    std::vector<float> bias(m);
    for (auto &v : bias)
        v = static_cast<float>(rng.uniform(-0.1, 0.1));

    auto csr =
        sparse::SlabCsrMatrix::fromDense(a.data(), m, k, mask.data());
    ASSERT_GT(csr.slabCount(), 1u);
    std::vector<float> y(m);
    csr.multiply(1, x.data(), bias.data(), y.data(),
                 gemm::Epilogue::None);

    for (std::size_t row = 0; row < m; ++row) {
        float acc = bias[row];
        for (std::size_t kk = 0; kk < k; ++kk)
            if (mask[kk] != 0)
                acc += a[row * k + kk] * x[kk];
        ASSERT_EQ(y[row], acc) << "row " << row;
    }
}

TEST(SlabCsr, WideRightHandSideWithRelu)
{
    const std::size_t m = 6, k = 40, n = 9;
    Rng rng(47);
    std::vector<float> a(m * k), b(k * n), bias(m);
    for (auto &v : a)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (auto &v : b)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (auto &v : bias)
        v = static_cast<float>(rng.uniform(-0.5, 0.5));
    const auto mask = randomMask(k, 10, 53);

    auto csr = sparse::SlabCsrMatrix::fromDense(a.data(), m, k,
                                                mask.data(), 16);
    std::vector<float> y(m * n);
    csr.multiply(n, b.data(), bias.data(), y.data(),
                 gemm::Epilogue::Relu);

    for (std::size_t row = 0; row < m; ++row)
        for (std::size_t col = 0; col < n; ++col) {
            float acc = bias[row];
            for (std::size_t kk = 0; kk < k; ++kk)
                if (mask[kk] != 0)
                    acc += a[row * k + kk] * b[kk * n + col];
            ASSERT_EQ(y[row * n + col], std::max(acc, 0.0f))
                << row << "," << col;
        }
}

TEST(SlabCsr, ShardedMultiplyBitIdenticalAcrossThreadCounts)
{
    // nnz * n clears three kMinShardMacs, so multiply shards whole
    // row blocks by biasGemm's rule; 37 rows leave a one-row block.
    const std::size_t m = 37, k = 2000, n = 512;
    Rng rng(59);
    std::vector<float> a(m * k), b(k * n), bias(m);
    for (auto &v : a)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (auto &v : b)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (auto &v : bias)
        v = static_cast<float>(rng.uniform(-0.5, 0.5));
    const auto mask = randomMask(k, k / 3, 61);

    auto csr =
        sparse::SlabCsrMatrix::fromDense(a.data(), m, k, mask.data());
    ASSERT_EQ(gemm::rowShards(m, static_cast<std::uint64_t>(csr.nnz()) * n),
              3u);
    std::vector<float> reference(m * n);
    for (std::size_t row = 0; row < m; ++row)
        for (std::size_t col = 0; col < n; ++col) {
            float acc = bias[row];
            for (std::size_t kk = 0; kk < k; ++kk)
                if (mask[kk] != 0)
                    acc += a[row * k + kk] * b[kk * n + col];
            reference[row * n + col] = std::max(acc, 0.0f);
        }
    for (const unsigned threads : {1u, 2u, 8u}) {
        exec::ThreadPool::setGlobalThreadCount(threads);
        std::vector<float> y(m * n, -7.0f);
        csr.multiply(n, b.data(), bias.data(), y.data(),
                     gemm::Epilogue::Relu);
        for (std::size_t i = 0; i < y.size(); ++i)
            ASSERT_EQ(y[i], reference[i])
                << "element " << i << " @" << threads << " threads";
    }
    exec::ThreadPool::setGlobalThreadCount(0);
}

TEST(PrunedColumns, PacksAndGathers)
{
    const std::vector<float> dense = {
        1, 2, 3, 4, //
        5, 6, 7, 8, //
    };
    const std::vector<std::uint8_t> mask = {1, 0, 0, 1};
    auto pruned =
        sparse::PrunedColumns::fromDense(dense.data(), 2, 4, mask.data());
    EXPECT_EQ(pruned.rows(), 2u);
    ASSERT_EQ(pruned.activeCols(), 2u);
    EXPECT_EQ(pruned.activeIndices()[0], 0u);
    EXPECT_EQ(pruned.activeIndices()[1], 3u);
    EXPECT_EQ(pruned.packed()[0], 1.0f);
    EXPECT_EQ(pruned.packed()[1], 4.0f);
    EXPECT_EQ(pruned.packed()[2], 5.0f);
    EXPECT_EQ(pruned.packed()[3], 8.0f);

    const std::vector<float> x = {10, 20, 30, 40};
    std::vector<float> gathered(2);
    pruned.gather(x.data(), gathered.data());
    EXPECT_EQ(gathered[0], 10.0f);
    EXPECT_EQ(gathered[1], 40.0f);
}

TEST(SparseHelpers, MaskedDensityCountsActiveNonzeros)
{
    const std::vector<float> a = {
        1, 0, 2, 0, //
        3, 4, 0, 0, //
    };
    EXPECT_DOUBLE_EQ(sparse::maskedDensity(a.data(), 2, 4, nullptr),
                     4.0 / 8.0);
    const std::vector<std::uint8_t> mask = {1, 1, 0, 0};
    EXPECT_DOUBLE_EQ(sparse::maskedDensity(a.data(), 2, 4, mask.data()),
                     3.0 / 8.0);
}

// --- core mask helpers ----------------------------------------------------

TEST(DropoutMasks, ChannelMaskAndExpansion)
{
    const auto mask = core::channelDropoutMask(8, 3);
    ASSERT_EQ(mask.size(), 8u);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(mask[i], i < 3 ? 1 : 0) << i;

    const auto expanded = core::expandChannelMask(mask, 4);
    ASSERT_EQ(expanded.size(), 32u);
    for (std::size_t i = 0; i < 32; ++i)
        EXPECT_EQ(expanded[i], i < 12 ? 1 : 0) << i;
}

// --- layer wiring ---------------------------------------------------------

TEST(DenseDropout, PrunedPathMatchesMaskedNaive)
{
    DenseLayer layer(64, 48);
    Rng rng(59);
    layer.initializeWeights(rng);
    for (std::size_t i = 0; i < layer.biases().size(); ++i)
        layer.biases()[i] = 0.01f * static_cast<float>(i) - 0.2f;

    const auto mask = randomMask(64, 32, 61); // 50% density: Pruned
    ASSERT_TRUE(layer.setInputDropout(mask));
    EXPECT_EQ(layer.dropoutPath(), DropoutPath::Pruned);

    const Tensor x = randomTensor({64}, 67);
    const Tensor masked = maskedInput(x, mask, 1);
    expectIdentical(layer.forward(x), layer.forwardNaive(masked));
}

TEST(DenseDropout, CsrPathMatchesMaskedNaive)
{
    DenseLayer layer(512, 96);
    Rng rng(71);
    layer.initializeWeights(rng);

    const auto mask = randomMask(512, 51, 73); // ~10%: CSR
    ASSERT_TRUE(layer.setInputDropout(mask));
    EXPECT_EQ(layer.dropoutPath(), DropoutPath::Csr);

    const Tensor x = randomTensor({512}, 79);
    const Tensor masked = maskedInput(x, mask, 1);
    expectIdentical(layer.forward(x), layer.forwardNaive(masked));
}

TEST(DenseDropout, ClearingAndEdgeMasks)
{
    DenseLayer layer(16, 8);
    Rng rng(83);
    layer.initializeWeights(rng);
    for (std::size_t i = 0; i < layer.biases().size(); ++i)
        layer.biases()[i] = 0.1f * static_cast<float>(i) - 0.3f;

    // All-active mask clears dropout entirely.
    ASSERT_TRUE(layer.setInputDropout(std::vector<std::uint8_t>(16, 1)));
    EXPECT_EQ(layer.dropoutPath(), DropoutPath::None);

    // All dropped: output is exactly the bias vector.
    ASSERT_TRUE(layer.setInputDropout(std::vector<std::uint8_t>(16, 0)));
    const Tensor y = layer.forward(randomTensor({16}, 89));
    for (std::size_t i = 0; i < y.size(); ++i)
        ASSERT_EQ(y[i], layer.biases()[i]) << i;

    // Empty mask also clears.
    ASSERT_TRUE(layer.setInputDropout({}));
    EXPECT_EQ(layer.dropoutPath(), DropoutPath::None);
}

TEST(DenseDropout, ReinitializeRebuildsThePlan)
{
    DenseLayer layer(96, 40);
    Rng rng(97);
    layer.initializeWeights(rng);
    const auto mask = randomMask(96, 48, 101);
    ASSERT_TRUE(layer.setInputDropout(mask));

    // New weights: the packed/CSR view must follow them.
    Rng rng2(103);
    layer.initializeWeights(rng2);
    const Tensor x = randomTensor({96}, 107);
    expectIdentical(layer.forward(x),
                    layer.forwardNaive(maskedInput(x, mask, 1)));
}

TEST(ConvDropout, PrunedPathMatchesMaskedNaive)
{
    Conv2dLayer conv(8, 6, 3, 3, 1, Padding::Same);
    Rng rng(109);
    conv.initializeWeights(rng);
    for (std::size_t i = 0; i < conv.biases().size(); ++i)
        conv.biases()[i] = 0.05f * static_cast<float>(i) - 0.1f;

    const auto mask = randomMask(8, 4, 113); // 50%: Pruned
    ASSERT_TRUE(conv.setInputDropout(mask));
    EXPECT_EQ(conv.dropoutPath(), DropoutPath::Pruned);

    const Tensor x = randomTensor({8, 12, 10}, 127);
    const Tensor masked = maskedInput(x, mask, 12 * 10);
    expectIdentical(conv.forward(x), conv.forwardNaive(masked));
}

TEST(ConvDropout, CsrPathMatchesMaskedNaive)
{
    Conv2dLayer conv(16, 5, 3, 3, 1, Padding::Same);
    Rng rng(131);
    conv.initializeWeights(rng);

    const auto mask = randomMask(16, 2, 137); // 12.5%: CSR
    ASSERT_TRUE(conv.setInputDropout(mask));
    EXPECT_EQ(conv.dropoutPath(), DropoutPath::Csr);

    const Tensor x = randomTensor({16, 9, 11}, 139);
    const Tensor masked = maskedInput(x, mask, 9 * 11);
    expectIdentical(conv.forward(x), conv.forwardNaive(masked));
}

TEST(ConvDropout, PointwiseConvUsesTheCompactBuffer)
{
    // 1x1 stride-1: the compacted channel block feeds the GEMM with
    // no im2col at all.
    Conv2dLayer conv(12, 7, 1, 1, 1, Padding::Valid);
    Rng rng(149);
    conv.initializeWeights(rng);

    const auto mask = randomMask(12, 6, 151);
    ASSERT_TRUE(conv.setInputDropout(mask));

    const Tensor x = randomTensor({12, 8, 9}, 157);
    const Tensor masked = maskedInput(x, mask, 8 * 9);
    expectIdentical(conv.forward(x), conv.forwardNaive(masked));
}

TEST(ConvDropout, StridedValidConvMatchesMaskedNaive)
{
    Conv2dLayer conv(6, 4, 3, 2, 2, Padding::Valid);
    Rng rng(163);
    conv.initializeWeights(rng);

    const auto mask = randomMask(6, 3, 167);
    ASSERT_TRUE(conv.setInputDropout(mask));

    const Tensor x = randomTensor({6, 13, 11}, 173);
    const Tensor masked = maskedInput(x, mask, 13 * 11);
    expectIdentical(conv.forward(x), conv.forwardNaive(masked));
}

TEST(ConvDropout, AllChannelsDroppedYieldsBias)
{
    Conv2dLayer conv(4, 3, 3, 3, 1, Padding::Same);
    Rng rng(179);
    conv.initializeWeights(rng);
    for (std::size_t i = 0; i < conv.biases().size(); ++i)
        conv.biases()[i] = 0.3f * static_cast<float>(i) - 0.4f;

    ASSERT_TRUE(conv.setInputDropout(std::vector<std::uint8_t>(4, 0)));
    const Tensor y = conv.forward(randomTensor({4, 5, 5}, 181));
    for (std::size_t oc = 0; oc < 3; ++oc)
        for (std::size_t i = 0; i < 25; ++i)
            ASSERT_EQ(y[oc * 25 + i], conv.biases()[oc]) << oc;
}

TEST(ConvDropout, BitIdenticalAcrossThreadCounts)
{
    // Half the 16 input channels survive: 32 outputs x 4096
    // positions x 72 pruned patch rows still clears two
    // kMinShardMacs, so the pruned GEMM shards over the pool.
    ASSERT_EQ(gemm::rowShards(32, std::uint64_t{32} * 4096 * 72), 2u);
    Conv2dLayer conv(16, 32, 3, 3, 1, Padding::Same);
    Rng rng(191);
    conv.initializeWeights(rng);
    const auto mask = randomMask(16, 8, 193);
    ASSERT_TRUE(conv.setInputDropout(mask));

    const Tensor x = randomTensor({16, 64, 64}, 197);
    exec::ThreadPool::setGlobalThreadCount(1);
    const Tensor serial = conv.forward(x);
    exec::ThreadPool::setGlobalThreadCount(8);
    const Tensor parallel = conv.forward(x);
    exec::ThreadPool::setGlobalThreadCount(0);
    expectIdentical(serial, parallel);
}

TEST(StageDropout, ForwardsToTheInnerConv)
{
    DenseStage2dLayer stage(10, 4, 3, 3);
    Rng rng(199);
    stage.initializeWeights(rng);

    const auto mask = randomMask(10, 5, 211);
    ASSERT_TRUE(stage.setInputDropout(mask));

    // Over the *masked* input, dropout-forward equals the reference
    // exactly: passthrough copies the zeroed planes, the conv skips
    // them.
    const Tensor x = randomTensor({10, 7, 9}, 223);
    const Tensor masked = maskedInput(x, mask, 7 * 9);
    expectIdentical(stage.forward(masked),
                    stage.forwardReference(masked));
}

TEST(NetworkDropout, MaskLandsOnTheFirstLayer)
{
    Network net("probe", Shape{32});
    auto &l0 = net.emplace<DenseLayer>(32, 24);
    net.emplace<DenseLayer>(24, 8);
    Rng rng(227);
    net.initializeWeights(rng);

    const auto mask = randomMask(32, 16, 229);
    ASSERT_TRUE(net.setInputDropout(mask));
    EXPECT_NE(l0.dropoutPath(), DropoutPath::None);

    const Tensor x = randomTensor({32}, 233);
    const Tensor masked = maskedInput(x, mask, 1);

    Network dense_net("probe-dense", Shape{32});
    auto &d0 = dense_net.emplace<DenseLayer>(32, 24);
    auto &d1 = dense_net.emplace<DenseLayer>(24, 8);
    Rng rng2(227); // same seed: identical weights
    dense_net.initializeWeights(rng2);
    (void)d0;
    (void)d1;
    expectIdentical(net.forward(x), dense_net.forward(masked));
}

} // namespace
} // namespace mindful::dnn
