/**
 * @file
 * Channel-dropout tests (src/dnn/dropout.hh and its wiring through
 * DenseLayer / Conv2dLayer / DenseStage2dLayer / Network).
 *
 * The contract under test: a layer with an input-dropout mask
 * installed produces *bit-identical* output to the dense reference
 * (forwardNaive) evaluated over the same input with the dropped
 * units zeroed — from half the inputs kept down to an eighth, under
 * random masks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/optimization.hh"
#include "dnn/conv.hh"
#include "dnn/dense.hh"
#include "dnn/network.hh"

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

    const auto mask = randomMask(64, 32, 61);
    ASSERT_TRUE(layer.setInputDropout(mask));

    const Tensor x = randomTensor({64}, 67);
    const Tensor masked = maskedInput(x, mask, 1);
    expectIdentical(layer.forward(x), layer.forwardNaive(masked));
}

TEST(DenseDropout, TenthKeptMatchesMaskedNaive)
{
    DenseLayer layer(512, 96);
    Rng rng(71);
    layer.initializeWeights(rng);

    const auto mask = randomMask(512, 51, 73);
    ASSERT_TRUE(layer.setInputDropout(mask));

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

    const Tensor x = randomTensor({16}, 89);
    const Tensor unmasked = layer.forward(x);

    // All dropped: output is exactly the bias vector.
    ASSERT_TRUE(layer.setInputDropout(std::vector<std::uint8_t>(16, 0)));
    const Tensor y = layer.forward(x);
    for (std::size_t i = 0; i < y.size(); ++i)
        ASSERT_EQ(y[i], layer.biases()[i]) << i;

    // An all-active mask clears dropout entirely, and so does an
    // empty one.
    ASSERT_TRUE(layer.setInputDropout(std::vector<std::uint8_t>(16, 1)));
    expectIdentical(layer.forward(x), unmasked);
    ASSERT_TRUE(layer.setInputDropout(std::vector<std::uint8_t>(16, 0)));
    ASSERT_TRUE(layer.setInputDropout({}));
    expectIdentical(layer.forward(x), unmasked);
}

TEST(DenseDropout, ReinitializeRebuildsThePlan)
{
    DenseLayer layer(96, 40);
    Rng rng(97);
    layer.initializeWeights(rng);
    const auto mask = randomMask(96, 48, 101);
    ASSERT_TRUE(layer.setInputDropout(mask));

    // New weights: the packed columns must follow them.
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

    const auto mask = randomMask(8, 4, 113);
    ASSERT_TRUE(conv.setInputDropout(mask));

    const Tensor x = randomTensor({8, 12, 10}, 127);
    const Tensor masked = maskedInput(x, mask, 12 * 10);
    expectIdentical(conv.forward(x), conv.forwardNaive(masked));
}

TEST(ConvDropout, EighthKeptMatchesMaskedNaive)
{
    Conv2dLayer conv(16, 5, 3, 3, 1, Padding::Same);
    Rng rng(131);
    conv.initializeWeights(rng);

    const auto mask = randomMask(16, 2, 137);
    ASSERT_TRUE(conv.setInputDropout(mask));

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

TEST(StageDropout, RefusesTheMask)
{
    // The passthrough half copies its input, dropped planes included,
    // so the stage cannot honour the Layer contract and must refuse
    // the mask; its forward stays the unmasked one.
    DenseStage2dLayer stage(10, 4, 3, 3);
    Rng rng(199);
    stage.initializeWeights(rng);

    const Tensor x = randomTensor({10, 7, 9}, 223);
    const Tensor unmasked = stage.forward(x);
    EXPECT_FALSE(stage.setInputDropout(randomMask(10, 5, 211)));
    expectIdentical(stage.forward(x), unmasked);
    expectIdentical(stage.forward(x), stage.forwardReference(x));
}

TEST(NetworkDropout, MaskLandsOnTheFirstLayer)
{
    Network net("probe", Shape{32});
    net.emplace<DenseLayer>(32, 24);
    net.emplace<DenseLayer>(24, 8);
    Rng rng(227);
    net.initializeWeights(rng);

    const auto mask = randomMask(32, 16, 229);
    ASSERT_TRUE(net.setInputDropout(mask));

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
