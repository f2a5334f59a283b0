/**
 * @file
 * Layer-level tests: forward semantics, shapes, weight counts, and
 * lazy materialization for dense, conv, activation, pooling and
 * DenseNet-stage layers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "dnn/activation.hh"
#include "dnn/conv.hh"
#include "dnn/dense.hh"
#include "dnn/pooling.hh"

namespace mindful::dnn {
namespace {

TEST(DenseLayerTest, ForwardComputesAffineMap)
{
    DenseLayer layer(3, 2);
    layer.setWeights({1.0f, 2.0f, 3.0f, /* row 1 */ 0.5f, -1.0f, 0.0f});
    layer.biases() = {10.0f, -1.0f};
    Tensor x(Shape{3}, {1.0f, 2.0f, 3.0f});
    Tensor y = layer.forward(x);
    ASSERT_EQ(y.shape(), (Shape{2}));
    EXPECT_FLOAT_EQ(y[0], 10.0f + 1.0f + 4.0f + 9.0f);
    EXPECT_FLOAT_EQ(y[1], -1.0f + 0.5f - 2.0f);
}

TEST(DenseLayerTest, AcceptsAnyShapeWithMatchingElements)
{
    DenseLayer layer(6, 1);
    layer.materialize();
    Tensor x(Shape{2, 3});
    EXPECT_EQ(layer.outputShape(x.shape()), (Shape{1}));
    EXPECT_NO_THROW(layer.forward(x));
}

TEST(DenseLayerTest, WeightCountWithoutMaterialization)
{
    DenseLayer layer(512, 128);
    EXPECT_FALSE(layer.materialized());
    EXPECT_EQ(layer.weightCount(), 512u * 128u + 128u);
}

TEST(DenseLayerTest, InitializeWeightsMaterializesAndBounds)
{
    DenseLayer layer(100, 50);
    Rng rng(1);
    layer.initializeWeights(rng);
    EXPECT_TRUE(layer.materialized());
    double limit = std::sqrt(6.0 / 150.0);
    for (std::size_t r = 0; r < 50; ++r)
        for (std::size_t c = 0; c < 100; ++c)
            EXPECT_LE(std::abs(layer.weight(r, c)), limit);
}

TEST(DenseLayerTest, SeededWeightsAreARowMajorDraw)
{
    // The packed store changes where a weight lives, not which draw it
    // gets: weight (r, c) is the (r * in + c)-th draw of the Rng.
    const std::size_t in = 13, out = 11; // a ragged last panel
    DenseLayer layer(in, out);
    Rng rng(41);
    layer.initializeWeights(rng);
    Rng reference(41);
    const double limit = std::sqrt(6.0 / static_cast<double>(in + out));
    for (std::size_t r = 0; r < out; ++r)
        for (std::size_t c = 0; c < in; ++c)
            ASSERT_EQ(layer.weight(r, c),
                      static_cast<float>(reference.uniform(-limit, limit)))
                << "weight (" << r << ", " << c << ")";
}

TEST(DenseLayerTest, SetWeightsRoundTripsThroughWeight)
{
    const std::size_t in = 5, out = 9;
    std::vector<float> row_major(in * out);
    for (std::size_t i = 0; i < row_major.size(); ++i)
        row_major[i] = 0.25f * static_cast<float>(i) - 3.0f;
    DenseLayer layer(in, out);
    EXPECT_FALSE(layer.materialized());
    layer.setWeights(row_major);
    EXPECT_TRUE(layer.materialized());
    for (std::size_t r = 0; r < out; ++r)
        for (std::size_t c = 0; c < in; ++c)
            EXPECT_EQ(layer.weight(r, c), row_major[r * in + c])
                << "weight (" << r << ", " << c << ")";
}

TEST(DenseLayerDeathTest, ForwardWithoutWeightsPanics)
{
    DenseLayer layer(4, 2);
    Tensor x(Shape{4});
    EXPECT_DEATH(layer.forward(x), "materialized");
}

TEST(DenseLayerTest, CensusMatchesFig8)
{
    // Fig. 8 top: A(4x3): #MAC_op = 4 rows, MAC_seq = 3.
    DenseLayer layer(3, 4);
    MacCensus census = layer.census({3});
    EXPECT_EQ(census.macOp, 4u);
    EXPECT_EQ(census.macSeq, 3u);
    EXPECT_EQ(census.totalMacs(), 12u);
}

TEST(ActivationTest, ReluClampsNegatives)
{
    ReluLayer relu;
    Tensor x(Shape{4}, {-1.0f, 0.0f, 2.0f, -3.0f});
    Tensor y = relu.forward(x);
    EXPECT_FLOAT_EQ(y[0], 0.0f);
    EXPECT_FLOAT_EQ(y[1], 0.0f);
    EXPECT_FLOAT_EQ(y[2], 2.0f);
    EXPECT_FLOAT_EQ(y[3], 0.0f);
    EXPECT_TRUE(relu.census({4}).empty());
    EXPECT_EQ(relu.weightCount(), 0u);
}

TEST(ActivationTest, SigmoidRangeAndMidpoint)
{
    SigmoidLayer sigmoid;
    Tensor x(Shape{3}, {0.0f, 10.0f, -10.0f});
    Tensor y = sigmoid.forward(x);
    EXPECT_NEAR(y[0], 0.5f, 1e-6);
    EXPECT_GT(y[1], 0.999f);
    EXPECT_LT(y[2], 0.001f);
}

TEST(ActivationTest, SoftmaxNormalizesAndOrders)
{
    SoftmaxLayer softmax;
    Tensor x(Shape{3}, {1.0f, 2.0f, 3.0f});
    Tensor y = softmax.forward(x);
    float sum = y[0] + y[1] + y[2];
    EXPECT_NEAR(sum, 1.0f, 1e-6);
    EXPECT_LT(y[0], y[1]);
    EXPECT_LT(y[1], y[2]);
}

TEST(ActivationTest, SoftmaxStableForLargeInputs)
{
    SoftmaxLayer softmax;
    Tensor x(Shape{2}, {1000.0f, 1000.0f});
    Tensor y = softmax.forward(x);
    EXPECT_NEAR(y[0], 0.5f, 1e-6);
}

TEST(Conv2dTest, ValidOutputShape)
{
    Conv2dLayer conv(2, 4, 3, 3);
    EXPECT_EQ(conv.outputShape({2, 8, 8}), (Shape{4, 6, 6}));
}

TEST(Conv2dTest, SameOutputShapeWithStride)
{
    Conv2dLayer conv(1, 1, 3, 3, 2, Padding::Same);
    EXPECT_EQ(conv.outputShape({1, 9, 9}), (Shape{1, 5, 5}));
}

TEST(Conv2dTest, IdentityKernelReproducesInput)
{
    Conv2dLayer conv(1, 1, 3, 3, 1, Padding::Same);
    conv.materialize();
    conv.weights()[4] = 1.0f; // centre tap
    Tensor x(Shape{1, 4, 4});
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(i);
    Tensor y = conv.forward(x);
    EXPECT_FLOAT_EQ(y.maxAbsDiff(x), 0.0f);
}

TEST(Conv2dTest, BoxKernelComputesLocalSum)
{
    Conv2dLayer conv(1, 1, 2, 2, 1, Padding::Valid);
    conv.materialize();
    for (auto &w : conv.weights())
        w = 1.0f;
    Tensor x(Shape{1, 2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
    Tensor y = conv.forward(x);
    ASSERT_EQ(y.shape(), (Shape{1, 1, 1}));
    EXPECT_FLOAT_EQ(y[0], 10.0f);
}

TEST(Conv2dTest, MultiChannelAccumulation)
{
    Conv2dLayer conv(2, 1, 1, 1);
    conv.materialize();
    conv.weights() = {2.0f, 3.0f}; // [out0][in0], [out0][in1]
    Tensor x(Shape{2, 1, 1}, {5.0f, 7.0f});
    Tensor y = conv.forward(x);
    EXPECT_FLOAT_EQ(y[0], 10.0f + 21.0f);
}

TEST(Conv2dTest, CensusMatchesFig8Example)
{
    // Fig. 8 bottom: 2 input channels, 1 output channel, kernel 4,
    // output size 4 -> #MAC_op = 4, MAC_seq = 8.
    Conv2dLayer conv(2, 1, 1, 4, 4, Padding::Valid);
    MacCensus census = conv.census({2, 1, 16});
    EXPECT_EQ(census.macOp, 4u);
    EXPECT_EQ(census.macSeq, 8u);
    EXPECT_EQ(census.totalMacs(), 32u);
}

TEST(Conv2dTest, CensusProductEqualsTotalMacs)
{
    Conv2dLayer conv(3, 8, 3, 3, 1, Padding::Same);
    Shape input{3, 16, 10};
    MacCensus census = conv.census(input);
    Shape out = conv.outputShape(input);
    std::uint64_t expected = static_cast<std::uint64_t>(out[1]) * out[2] *
                             9u * 3u * 8u;
    EXPECT_EQ(census.totalMacs(), expected);
}

TEST(Conv2dTest, WeightCount)
{
    Conv2dLayer conv(3, 8, 3, 3);
    EXPECT_EQ(conv.weightCount(), 3u * 8u * 9u + 8u);
}

TEST(DenseStageTest, ConcatenatesInputWithNewFeatures)
{
    DenseStage2dLayer stage(2, 3, 3, 3);
    EXPECT_EQ(stage.outputShape({2, 4, 4}), (Shape{5, 4, 4}));

    Rng rng(3);
    stage.initializeWeights(rng);
    Tensor x(Shape{2, 4, 4});
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(i) * 0.1f;
    Tensor y = stage.forward(x);

    // Channels 0-1 are the untouched input.
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_FLOAT_EQ(y[i], x[i]);
    // New channels are ReLU outputs: non-negative.
    for (std::size_t i = x.size(); i < y.size(); ++i)
        EXPECT_GE(y[i], 0.0f);
}

TEST(DenseStageTest, CensusIsTheInnerConvolutions)
{
    DenseStage2dLayer stage(4, 2, 3, 3);
    Conv2dLayer conv(4, 2, 3, 3, 1, Padding::Same);
    Shape input{4, 8, 8};
    EXPECT_EQ(stage.census(input).totalMacs(),
              conv.census(input).totalMacs());
    EXPECT_EQ(stage.weightCount(), conv.weightCount());
}

TEST(PoolingTest, MaxPoolSelectsMaxima)
{
    Pool2dLayer pool(PoolKind::Max, 2, 2);
    Tensor x(Shape{1, 2, 4}, {1.0f, 5.0f, 2.0f, 0.0f,
                              3.0f, -1.0f, 7.0f, 2.0f});
    Tensor y = pool.forward(x);
    ASSERT_EQ(y.shape(), (Shape{1, 1, 2}));
    EXPECT_FLOAT_EQ(y[0], 5.0f);
    EXPECT_FLOAT_EQ(y[1], 7.0f);
}

TEST(PoolingTest, AvgPoolAverages)
{
    Pool2dLayer pool(PoolKind::Average, 2, 2);
    Tensor x(Shape{1, 2, 2}, {1.0f, 2.0f, 3.0f, 6.0f});
    Tensor y = pool.forward(x);
    EXPECT_FLOAT_EQ(y[0], 3.0f);
}

TEST(PoolingTest, FloorSemanticsDropPartialWindows)
{
    Pool2dLayer pool(PoolKind::Max, 2, 2);
    EXPECT_EQ(pool.outputShape({3, 5, 7}), (Shape{3, 2, 3}));
}

TEST(PoolingTest, GlobalAvgPool)
{
    GlobalAvgPoolLayer pool;
    Tensor x(Shape{2, 2, 2}, {1, 1, 1, 1, 2, 4, 6, 8});
    Tensor y = pool.forward(x);
    ASSERT_EQ(y.shape(), (Shape{2}));
    EXPECT_FLOAT_EQ(y[0], 1.0f);
    EXPECT_FLOAT_EQ(y[1], 5.0f);
}

/** Bit pattern of every element, for byte-exact comparisons. */
std::vector<std::uint32_t>
bitsOf(const Tensor &t)
{
    std::vector<std::uint32_t> bits(t.size());
    for (std::size_t i = 0; i < t.size(); ++i)
        bits[i] = std::bit_cast<std::uint32_t>(t[i]);
    return bits;
}

/**
 * Random (3, h >= 7, w >= 10) input with values planted where the
 * visit order of a window decides the result: +-3e30 in consecutive
 * rows (the cancellation drops whichever small values are summed
 * between them), a +0.0 above a -0.0 among negatives (max keeps the
 * first of equal elements), -inf, alone and as a whole window, and
 * NaN at the head and the tail of a 2x2 window and as whole 2x2 and
 * 3x3 windows (max never takes a NaN; an all-NaN window stays -inf).
 */
Tensor
poolingInput(const Shape &shape)
{
    Tensor x(shape);
    Rng rng(41);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    x.at(0, 0, 0) = 3e30f;
    x.at(0, 1, 0) = -3e30f;
    for (std::size_t y = 0; y < 7; ++y)
        for (std::size_t w = 0; w < 5; ++w)
            x.at(1, y, w) = -0.5f;
    x.at(1, 0, 0) = 0.0f;
    x.at(1, 1, 0) = -0.0f;
    const float ninf = -std::numeric_limits<float>::infinity();
    x.at(2, 0, 0) = x.at(2, 0, 1) = x.at(2, 1, 0) = x.at(2, 1, 1) = ninf;
    x.at(2, 3, 3) = ninf;
    const float nan = std::numeric_limits<float>::quiet_NaN();
    x.at(0, 4, 4) = nan;
    x.at(0, 5, 7) = nan;
    for (std::size_t y = 3; y < 6; ++y)
        for (std::size_t w = 6; w < 10; ++w)
            x.at(2, y, w) = nan;
    return x;
}

/** Element-wise Pool2dLayer reference over Tensor::at. */
Tensor
referencePool(const Tensor &x, PoolKind kind, std::size_t kh,
              std::size_t kw)
{
    Tensor out(Shape{x.dim(0), x.dim(1) / kh, x.dim(2) / kw});
    const double window = static_cast<double>(kh) * static_cast<double>(kw);
    for (std::size_t c = 0; c < out.dim(0); ++c)
        for (std::size_t oy = 0; oy < out.dim(1); ++oy)
            for (std::size_t ox = 0; ox < out.dim(2); ++ox) {
                float best = -std::numeric_limits<float>::infinity();
                double sum = 0.0;
                for (std::size_t ky = 0; ky < kh; ++ky)
                    for (std::size_t kx = 0; kx < kw; ++kx) {
                        const float v = x.at(c, oy * kh + ky, ox * kw + kx);
                        best = std::max(best, v);
                        sum += v;
                    }
                out.at(c, oy, ox) = kind == PoolKind::Max
                                        ? best
                                        : static_cast<float>(sum / window);
            }
    return out;
}

TEST(PoolingTest, PoolMatchesElementwiseReferenceBitwise)
{
    // Square, non-square and one-axis kernels; 7x11 planes leave
    // partial windows that the floor semantics drop, and 40-wide ones
    // give output rows long enough for a vector body plus a tail.
    for (const Shape &shape : {Shape{3, 7, 11}, Shape{3, 8, 40}}) {
        const Tensor x = poolingInput(shape);
        for (const PoolKind kind : {PoolKind::Max, PoolKind::Average}) {
            for (const auto &[kh, kw] :
                 {std::pair<std::size_t, std::size_t>{2, 2}, {3, 2}, {2, 5},
                  {1, 3}, {7, 1}, {3, 3}, {2, 1}}) {
                Pool2dLayer pool(kind, kh, kw);
                EXPECT_EQ(bitsOf(pool.forward(x)),
                          bitsOf(referencePool(x, kind, kh, kw)))
                    << (kind == PoolKind::Max ? "max " : "avg ") << kh
                    << "x" << kw << " on " << toString(shape);
            }
        }
    }
}

TEST(PoolingTest, GlobalAvgPoolMatchesElementwiseReferenceBitwise)
{
    // Random planes, one of signed zeros only, one holding a -inf,
    // and one that opens with +-1e30: summed in order it averages the
    // small values, summed in any other order it loses them.
    Tensor x(Shape{4, 5, 9});
    Rng rng(43);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (std::size_t i = 0; i < 45; ++i)
        x[i] = i % 2 == 0 ? -0.0f : 0.0f;
    x[45 + 17] = -std::numeric_limits<float>::infinity();
    x[3 * 45] = 1e30f;
    x[3 * 45 + 1] = -1e30f;
    Tensor reference(Shape{4});
    for (std::size_t c = 0; c < 4; ++c) {
        double sum = 0.0;
        for (std::size_t y = 0; y < 5; ++y)
            for (std::size_t w = 0; w < 9; ++w)
                sum += x.at(c, y, w);
        reference[c] = static_cast<float>(sum / 45.0);
    }
    GlobalAvgPoolLayer pool;
    EXPECT_EQ(bitsOf(pool.forward(x)), bitsOf(reference));
}

TEST(PoolingTest, FlattenKeepsDataOrder)
{
    FlattenLayer flatten;
    Tensor x(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
    Tensor y = flatten.forward(x);
    ASSERT_EQ(y.shape(), (Shape{6}));
    EXPECT_FLOAT_EQ(y[3], 4.0f);
}

TEST(PoolingTest, PoolingLayersAreMacFree)
{
    Pool2dLayer pool(PoolKind::Max, 2, 2);
    GlobalAvgPoolLayer global;
    FlattenLayer flatten;
    EXPECT_TRUE(pool.census({1, 4, 4}).empty());
    EXPECT_TRUE(global.census({1, 4, 4}).empty());
    EXPECT_TRUE(flatten.census({1, 4, 4}).empty());
}

} // namespace
} // namespace mindful::dnn
