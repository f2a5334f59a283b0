/**
 * @file
 * Golden-equivalence tests for the im2col-GEMM forward path.
 *
 * Conv2dLayer::forward / DenseLayer::forward execute through the
 * shared GEMM kernel (src/dnn/gemm.hh); the original loop nests are
 * retained as forwardNaive. The kernel accumulates each output
 * element sequentially in ascending k — the same order as the naive
 * loops — so the contract is *exact* float equality to the naive
 * reference. These tests pin that contract over the padding modes,
 * strides, and kernel shapes the model zoo uses (and a few it
 * doesn't, e.g. even kernels).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

#include "dnn/conv.hh"
#include "dnn/dense.hh"
#include "dnn/gemm.hh"
#include "dnn/gemm_kernels.hh"
#include "exec/parallel.hh"

namespace mindful::dnn {
namespace {

/** Deterministic non-trivial input: mixed signs, no repeats. */
Tensor
makeInput(const Shape &shape)
{
    Tensor x(shape);
    Rng rng(7);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    return x;
}

/** Exact per-element comparison (bitwise-equal floats). */
void
expectIdentical(const Tensor &a, const Tensor &b)
{
    ASSERT_EQ(a.shape(), b.shape());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]),
                  std::bit_cast<std::uint32_t>(b[i]))
            << "element " << i << ": " << a[i] << " vs " << b[i];
}

Conv2dLayer
makeConv(std::size_t in_ch, std::size_t out_ch, std::size_t kh,
         std::size_t kw, std::size_t stride, Padding padding)
{
    Conv2dLayer conv(in_ch, out_ch, kh, kw, stride, padding);
    Rng rng(11);
    conv.initializeWeights(rng);
    for (std::size_t i = 0; i < conv.biases().size(); ++i)
        conv.biases()[i] = 0.05f * static_cast<float>(i) - 0.1f;
    return conv;
}

TEST(GemmConvTest, SamePaddingMatchesNaiveExactly)
{
    auto conv = makeConv(3, 8, 3, 3, 1, Padding::Same);
    // Odd extents so the GEMM column count exercises the tail block
    // (n = 143 is not a multiple of the 16-wide register tile).
    Tensor x = makeInput({3, 13, 11});
    expectIdentical(conv.forward(x), conv.forwardNaive(x));

    // A large product: 32 outputs x 4096 positions x 144 patch rows.
    auto wide = makeConv(16, 32, 3, 3, 1, Padding::Same);
    Tensor planes = makeInput({16, 64, 64});
    expectIdentical(wide.forward(planes), wide.forwardNaive(planes));

    // DN-CNN(256)'s stem: one 256-channel x 16-sample window plane.
    auto stem = makeConv(1, 16, 3, 3, 1, Padding::Same);
    Tensor window = makeInput({1, 256, 16});
    expectIdentical(stem.forward(window), stem.forwardNaive(window));
}

TEST(GemmConvTest, ValidPaddingMatchesNaiveExactly)
{
    auto conv = makeConv(4, 6, 3, 3, 1, Padding::Valid);
    Tensor x = makeInput({4, 12, 9});
    expectIdentical(conv.forward(x), conv.forwardNaive(x));
}

TEST(GemmConvTest, StridedSamePaddingMatchesNaiveExactly)
{
    auto conv = makeConv(2, 5, 3, 3, 2, Padding::Same);
    Tensor x = makeInput({2, 11, 17});
    expectIdentical(conv.forward(x), conv.forwardNaive(x));
}

TEST(GemmConvTest, StridedValidPaddingMatchesNaiveExactly)
{
    auto conv = makeConv(2, 4, 4, 4, 3, Padding::Valid);
    Tensor x = makeInput({2, 16, 13});
    expectIdentical(conv.forward(x), conv.forwardNaive(x));

    // A rectangular kernel whose stride leaves a ragged last column.
    auto rect = makeConv(6, 4, 3, 2, 2, Padding::Valid);
    Tensor y = makeInput({6, 13, 11});
    expectIdentical(rect.forward(y), rect.forwardNaive(y));
}

TEST(GemmConvTest, EvenKernelMatchesNaiveExactly)
{
    // Even kernels make the "same" padding asymmetric ((k-1)/2 before,
    // the remainder after) — the im2col valid-span bookkeeping must
    // agree with the naive loop's bounds checks exactly.
    auto conv = makeConv(3, 4, 2, 4, 1, Padding::Same);
    Tensor x = makeInput({3, 9, 10});
    expectIdentical(conv.forward(x), conv.forwardNaive(x));
}

TEST(GemmConvTest, WideRectangularKernelMatchesNaiveExactly)
{
    // The speech front-end uses 1xN temporal kernels.
    auto conv = makeConv(2, 3, 1, 7, 1, Padding::Same);
    Tensor x = makeInput({2, 5, 40});
    expectIdentical(conv.forward(x), conv.forwardNaive(x));
}

TEST(GemmConvTest, PointwiseConvMatchesNaiveExactly)
{
    // 1x1 stride-1 takes the zero-copy path (input buffer used as the
    // patch matrix directly).
    auto conv = makeConv(6, 9, 1, 1, 1, Padding::Same);
    Tensor x = makeInput({6, 14, 10});
    expectIdentical(conv.forward(x), conv.forwardNaive(x));

    auto valid = makeConv(12, 7, 1, 1, 1, Padding::Valid);
    Tensor y = makeInput({12, 8, 9});
    expectIdentical(valid.forward(y), valid.forwardNaive(y));
}

TEST(GemmConvTest, KernelLargerThanInputSamePadding)
{
    auto conv = makeConv(1, 2, 5, 5, 1, Padding::Same);
    Tensor x = makeInput({1, 3, 3});
    expectIdentical(conv.forward(x), conv.forwardNaive(x));
}

/**
 * makeInput with NaN, +-inf and -0.0 planted all around the border of
 * every plane — the first and last row and column, which a shifted tap
 * reads across a row end and its column mask drops. Masked positions
 * must come out +0.0f whatever they read.
 */
Tensor
makeBorderedInput(const Shape &shape)
{
    Tensor x = makeInput(shape);
    const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(),
                              -0.0f};
    std::size_t next = 0;
    auto plant = [&](std::size_t c, std::size_t y, std::size_t w) {
        x.at(c, y, w) = specials[next++ % std::size(specials)];
    };
    const std::size_t h = shape[1];
    const std::size_t w = shape[2];
    for (std::size_t c = 0; c < shape[0]; ++c) {
        for (std::size_t y = 0; y < h; ++y) {
            plant(c, y, 0);
            plant(c, y, w - 1);
        }
        for (std::size_t col = 0; col < w; ++col) {
            plant(c, 0, col);
            plant(c, h - 1, col);
        }
    }
    return x;
}

/**
 * Pack one input through gemm::detail::im2col (masked shifted taps wherever
 * stride == 1 and out_w == in_w) and through the per-row packer, and
 * require the two patch matrices to be byte-identical. The buffers
 * start from different fill values and the mask scratch from garbage,
 * so an element either path leaves unwritten shows up as a mismatch.
 */
void
expectIm2colPathsAgree(std::size_t channels, std::size_t in_h,
                       std::size_t in_w, std::size_t kh, std::size_t kw,
                       Padding padding)
{
    const bool same = padding == Padding::Same;
    const gemm::ConvGeometry geometry{channels,
                                      in_h,
                                      in_w,
                                      kh,
                                      kw,
                                      1,
                                      same ? (kh - 1) / 2 : 0,
                                      same ? (kw - 1) / 2 : 0,
                                      same ? in_h : in_h - kh + 1,
                                      same ? in_w : in_w - kw + 1};
    const Tensor x = makeBorderedInput({channels, in_h, in_w});
    const std::size_t count = geometry.patchRows() * geometry.positions();

    std::vector<float> single(count, 7.0f);
    std::vector<float> per_row(count, -3.0f);
    std::vector<std::uint32_t> masks(gemm::detail::im2colMaskWords(geometry),
                                     0x5a5a5a5au);
    gemm::detail::im2col(geometry, x.data(), single.data(), masks.data());
    gemm::detail::im2colPerRow(geometry, x.data(), per_row.data());
    ASSERT_EQ(std::memcmp(single.data(), per_row.data(),
                          count * sizeof(float)),
              0)
        << channels << "x" << in_h << "x" << in_w << " kernel " << kh
        << "x" << kw << (same ? " same" : " valid");
}

TEST(GemmConvTest, SingleCopyIm2colMatchesPerRowPacking)
{
    // Odd, even and rectangular kernels under same padding.
    expectIm2colPathsAgree(3, 9, 7, 3, 3, Padding::Same);
    expectIm2colPathsAgree(2, 8, 6, 4, 4, Padding::Same);
    expectIm2colPathsAgree(2, 5, 8, 2, 2, Padding::Same);
    expectIm2colPathsAgree(2, 6, 9, 3, 5, Padding::Same);
    expectIm2colPathsAgree(2, 9, 4, 5, 1, Padding::Same);
    // Valid padding keeps out_w == in_w only for one-column kernels;
    // wider ones take the per-row path in both packers.
    expectIm2colPathsAgree(3, 9, 7, 3, 1, Padding::Valid);
    expectIm2colPathsAgree(2, 9, 7, 3, 3, Padding::Valid);
    // A kernel taller than the input: some taps have no valid row.
    expectIm2colPathsAgree(2, 2, 6, 7, 3, Padding::Same);
    // One input column: every tap but the centre one is all padding.
    expectIm2colPathsAgree(2, 5, 1, 3, 3, Padding::Same);
    expectIm2colPathsAgree(2, 6, 1, 3, 1, Padding::Valid);
    // DN-CNN(256)'s own planes: the stem conv and the block 1 and
    // block 2 stage inputs, all 3x3 same.
    expectIm2colPathsAgree(1, 256, 16, 3, 3, Padding::Same);
    expectIm2colPathsAgree(16, 64, 8, 3, 3, Padding::Same);
    expectIm2colPathsAgree(80, 32, 4, 3, 3, Padding::Same);
}

TEST(GemmDenseTest, MatchesNaiveExactly)
{
    // 1027 outputs end three rows short of a whole 8-row panel. The
    // grid below covers a lone row, a short panel, one and two whole
    // panels, and the four-panel pass with and without leftovers, for
    // in from a single column to twice the MLP's widest input.
    // {1024, 768} is the Fig. 10 MLP trunk at n = 512.
    std::vector<std::pair<std::size_t, std::size_t>> shapes = {
        {37, 29}, {512, 512}, {1024, 768}, {8200, 1027}};
    for (const std::size_t out : {1u, 7u, 8u, 9u, 40u, 770u})
        for (const std::size_t in : {1u, 3u, 384u, 3072u})
            shapes.emplace_back(in, out);
    for (const auto &[in, out] : shapes) {
        SCOPED_TRACE(testing::Message() << "in=" << in << " out=" << out);
        DenseLayer layer(in, out);
        Rng rng(13);
        layer.initializeWeights(rng);
        for (std::size_t i = 0; i < layer.biases().size(); ++i)
            layer.biases()[i] = 0.01f * static_cast<float>(i);
        Tensor x = makeInput({in});
        expectIdentical(layer.forward(x), layer.forwardNaive(x));
    }
}

TEST(GemmDenseTest, ConcurrentForwardsOfOneLayerMatchNaive)
{
    // forward is const: pool shards may share one layer's panels.
    DenseLayer layer(384, 40);
    Rng rng(17);
    layer.initializeWeights(rng);
    const Tensor x = makeInput({384});
    const Tensor naive = layer.forwardNaive(x);
    std::vector<Tensor> outs(8);
    exec::parallelFor(outs.size(), [&](std::size_t shard) {
        outs[shard] = layer.forward(x);
    });
    for (const Tensor &y : outs)
        expectIdentical(y, naive);
}

TEST(GemmDenseStageTest, FusedForwardMatchesReferenceExactly)
{
    // The production DenseNet stage writes the conv's ReLU-ed output
    // directly into the concatenated tensor with the ReLU fused into
    // the GEMM epilogue; forwardReference runs the naive conv plus an
    // explicit ReLU pass. max(x, 0) on identical x is identical.
    DenseStage2dLayer stage(5, 11, 3, 3);
    Rng rng(19);
    stage.initializeWeights(rng);
    Tensor x = makeInput({5, 16, 16});
    expectIdentical(stage.forward(x), stage.forwardReference(x));
}

TEST(GemmKernelTest, EpilogueReluClampsExactly)
{
    // Direct kernel check: one row whose products straddle zero.
    // A = [1, -1], B columns = (1,0), (0,1), (2,3), bias = -0.5.
    const float a[] = {1.0f, -1.0f};
    const float b[] = {1.0f, 0.0f, 2.0f, /* k=1 row */ 0.0f, 1.0f, 3.0f};
    const float bias[] = {-0.5f};
    float none[3], relu[3];
    gemm::biasGemm(1, 3, 2, a, b, bias, none, gemm::Epilogue::None);
    gemm::biasGemm(1, 3, 2, a, b, bias, relu, gemm::Epilogue::Relu);
    EXPECT_FLOAT_EQ(none[0], 0.5f);
    EXPECT_FLOAT_EQ(none[1], -1.5f);
    EXPECT_FLOAT_EQ(none[2], -1.5f);
    EXPECT_FLOAT_EQ(relu[0], 0.5f);
    EXPECT_FLOAT_EQ(relu[1], 0.0f);
    EXPECT_FLOAT_EQ(relu[2], 0.0f);
}

} // namespace
} // namespace mindful::dnn
