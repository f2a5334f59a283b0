/**
 * @file
 * Reference speech-model tests: structure at the published operating
 * point, the alpha scaling law of Sec. 5.3, and the properties the
 * paper's studies rely on (super-linear compute growth, fixed output
 * size, DN-CNN's lack of narrow cuts).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dnn/models.hh"

namespace mindful::dnn {
namespace {

TEST(ScalingAlphaTest, RatioToBaseChannels)
{
    EXPECT_DOUBLE_EQ(scalingAlpha(128, 128), 1.0);
    EXPECT_DOUBLE_EQ(scalingAlpha(1024, 128), 8.0);
    EXPECT_DOUBLE_EQ(scalingAlpha(64, 128), 0.5);
}

TEST(ExtraDepthTest, LogarithmicGrowth)
{
    EXPECT_EQ(extraDepth(0.5), 0u);
    EXPECT_EQ(extraDepth(1.0), 0u);
    EXPECT_EQ(extraDepth(2.0), 1u);
    EXPECT_EQ(extraDepth(8.0), 3u);
    EXPECT_EQ(extraDepth(16.0), 4u);
}

TEST(ScaledWidthTest, ScalesAndClamps)
{
    EXPECT_EQ(scaledWidth(256, 2.0), 512u);
    EXPECT_EQ(scaledWidth(256, 0.5), 128u);
    EXPECT_EQ(scaledWidth(3, 0.01), 1u);
}

TEST(SpeechMlpTest, BaseOperatingPoint)
{
    Network mlp = buildSpeechMlp(128);
    EXPECT_EQ(mlp.inputShape(),
              (Shape{128u * MlpSpec{}.windowSamples}));
    EXPECT_EQ(mlp.outputShape(), (Shape{40})); // 40 speech labels
    EXPECT_GT(mlp.totalMacs(), 100000u); // non-trivial model
}

TEST(SpeechMlpTest, OutputSizeIndependentOfChannels)
{
    // Sec. 5.3: classification output is a fixed label vector.
    for (std::uint64_t n : {128u, 512u, 1024u, 4096u})
        EXPECT_EQ(buildSpeechMlp(n).outputShape(), (Shape{40}));
}

TEST(SpeechMlpTest, ComputeGrowsSuperLinearly)
{
    // The curse of dimensionality: 8x the channels must cost much
    // more than 8x the MACs.
    double base = static_cast<double>(buildSpeechMlp(128).totalMacs());
    double scaled = static_cast<double>(buildSpeechMlp(1024).totalMacs());
    EXPECT_GT(scaled / base, 20.0);
}

TEST(SpeechMlpTest, DepthGrowsWithAlpha)
{
    EXPECT_GT(buildSpeechMlp(2048).layerCount(),
              buildSpeechMlp(128).layerCount());
}

TEST(SpeechMlpTest, HasLatentBottleneckCut)
{
    // The Sec. 6.1 partition point: some intermediate layer output
    // is <= 1024 elements even for large n, with MACs behind it.
    Network mlp = buildSpeechMlp(2048);
    bool found = false;
    for (std::size_t i = 0; i + 1 < mlp.layerCount() && !found; ++i) {
        if (mlp.outputElements(i) <= 1024) {
            auto census = mlp.census();
            std::uint64_t behind = 0;
            for (std::size_t j = i + 1; j < mlp.layerCount(); ++j)
                behind += census[j].totalMacs();
            found = behind > 0;
        }
    }
    EXPECT_TRUE(found);
}

TEST(SpeechMlpTest, ForwardExecutesAtBaseScale)
{
    Network mlp = buildSpeechMlp(128);
    Rng rng(7);
    mlp.initializeWeights(rng);
    Tensor x(mlp.inputShape());
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = 0.01f * static_cast<float>(i % 100);
    Tensor y = mlp.forward(x);
    ASSERT_EQ(y.size(), 40u);
    float sum = 0.0f;
    for (std::size_t i = 0; i < y.size(); ++i)
        sum += y[i];
    EXPECT_NEAR(sum, 1.0f, 1e-5);
}

TEST(SpeechDnCnnTest, BaseOperatingPoint)
{
    Network cnn = buildSpeechDnCnn(128);
    EXPECT_EQ(cnn.inputShape(),
              (Shape{1, 128, DnCnnSpec{}.windowSamples}));
    EXPECT_EQ(cnn.outputShape(), (Shape{40}));
}

TEST(SpeechDnCnnTest, MoreExpensiveThanMlpAtScale)
{
    // Fig. 10: the DN-CNN hits the budget earlier than the MLP.
    EXPECT_GT(buildSpeechDnCnn(1024).totalMacs(),
              buildSpeechMlp(1024).totalMacs());
}

TEST(SpeechDnCnnTest, ComputeGrowsSuperLinearly)
{
    double base = static_cast<double>(buildSpeechDnCnn(128).totalMacs());
    double scaled =
        static_cast<double>(buildSpeechDnCnn(1024).totalMacs());
    EXPECT_GT(scaled / base, 12.0);
}

TEST(SpeechDnCnnTest, NoNarrowCutBeforeTheClassifier)
{
    // Fig. 11: every intermediate feature map is wider than 1024
    // values until the global pool right before the classifier —
    // partitioning cannot help this model.
    Network cnn = buildSpeechDnCnn(2048);
    auto census = cnn.census();
    for (std::size_t i = 0; i + 1 < cnn.layerCount(); ++i) {
        if (cnn.outputElements(i) > 1024)
            continue;
        // A narrow point: almost no MACs may remain behind it.
        std::uint64_t behind = 0;
        for (std::size_t j = i + 1; j < cnn.layerCount(); ++j)
            behind += census[j].totalMacs();
        EXPECT_LT(static_cast<double>(behind),
                  0.01 * static_cast<double>(cnn.totalMacs()));
    }
}

TEST(SpeechDnCnnTest, ForwardExecutesAtBaseScale)
{
    Network cnn = buildSpeechDnCnn(128);
    Rng rng(9);
    cnn.initializeWeights(rng);
    Tensor x(cnn.inputShape());
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = 0.001f * static_cast<float>(i % 97);
    Tensor y = cnn.forward(x);
    ASSERT_EQ(y.size(), 40u);
    float sum = 0.0f;
    for (std::size_t i = 0; i < y.size(); ++i)
        sum += y[i];
    EXPECT_NEAR(sum, 1.0f, 1e-5);
}

/** Float bits of a tensor, for exact comparison (NaN-safe). */
std::vector<std::uint32_t>
tensorBits(const Tensor &t)
{
    std::vector<std::uint32_t> bits(t.size());
    for (std::size_t i = 0; i < t.size(); ++i)
        bits[i] = std::bit_cast<std::uint32_t>(t[i]);
    return bits;
}

TEST(SpeechDnCnnTest, EveryChannelCountFromOneBuildsAndRuns)
{
    // Below 4 channels a pool can meet a one-row map, and it shrinks
    // to 1 x 2 there; from 4 channels on both pools are 2 x 2, as at
    // every figure's scale. Each build's census must agree with its
    // layers, grow with n, and describe the shapes forward() produces.
    std::uint64_t previous_macs = 0;
    for (std::uint64_t n = 1; n <= 8; ++n) {
        SCOPED_TRACE(n);
        Network cnn = buildSpeechDnCnn(n);
        const std::vector<MacCensus> census = cnn.census();
        ASSERT_EQ(census.size(), cnn.layerCount());
        std::uint64_t macs = 0;
        std::size_t pools = 0;
        for (std::size_t i = 0; i < cnn.layerCount(); ++i) {
            const MacCensus layer = cnn.layer(i).census(cnn.shapeBefore(i));
            EXPECT_EQ(census[i].macOp, layer.macOp) << "layer " << i;
            EXPECT_EQ(census[i].macSeq, layer.macSeq) << "layer " << i;
            macs += census[i].totalMacs();
            const std::string name = cnn.layer(i).name();
            if (name.find("-pool ") != std::string::npos &&
                name.find("global") == std::string::npos) {
                ++pools;
                const bool one_row = cnn.shapeBefore(i)[1] == 1;
                EXPECT_EQ(name.substr(name.size() - 3),
                          one_row ? "1x2" : "2x2");
                EXPECT_TRUE(n < 4 || !one_row);
            }
        }
        EXPECT_EQ(pools, 2u);
        EXPECT_EQ(macs, cnn.totalMacs());
        EXPECT_GT(macs, previous_macs);
        previous_macs = macs;

        Rng rng(n);
        cnn.initializeWeights(rng);
        Tensor x(cnn.inputShape());
        for (std::size_t i = 0; i < x.size(); ++i)
            x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
        Tensor y = x;
        for (std::size_t i = 0; i < cnn.layerCount(); ++i) {
            y = cnn.layer(i).forward(y);
            ASSERT_EQ(y.shape(), cnn.shapeAfter(i)) << "layer " << i;
        }
        EXPECT_EQ(tensorBits(y), tensorBits(cnn.forward(x)));
        float sum = 0.0f;
        for (std::size_t i = 0; i < y.size(); ++i)
            sum += y[i];
        EXPECT_NEAR(sum, 1.0f, 1e-5);
    }
}

TEST(ConcurrentForward, SharedConstDnCnnMatchesOneThreadBitwise)
{
    // Network::forward is const and may run on several threads at
    // once: the conv layers' im2col scratch is per thread. Four
    // threads decode different windows through one shared network at
    // the same time; each result must equal a serial forward's.
    Network owned = buildSpeechDnCnn(128);
    Rng rng(21);
    owned.initializeWeights(rng);
    const Network &cnn = owned;

    constexpr std::size_t kThreads = 4;
    std::vector<Tensor> inputs;
    for (std::size_t t = 0; t < kThreads; ++t) {
        Tensor x(cnn.inputShape());
        for (std::size_t i = 0; i < x.size(); ++i)
            x[i] = 0.001f * static_cast<float>((i * (t + 3)) % 101) -
                   0.05f;
        inputs.push_back(std::move(x));
    }
    std::vector<std::vector<std::uint32_t>> expected;
    for (const Tensor &x : inputs)
        expected.push_back(tensorBits(cnn.forward(x)));

    // Each thread walks every input, starting at its own, so the
    // threads hold different windows in flight at any moment.
    constexpr std::size_t kRounds = 3;
    std::vector<std::vector<std::vector<std::uint32_t>>> got(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (std::size_t r = 0; r < kRounds * kThreads; ++r)
                got[t].push_back(tensorBits(
                    cnn.forward(inputs[(t + r) % kThreads])));
        });
    for (std::thread &thread : threads)
        thread.join();

    for (std::size_t t = 0; t < kThreads; ++t) {
        ASSERT_EQ(got[t].size(), kRounds * kThreads);
        for (std::size_t r = 0; r < got[t].size(); ++r)
            EXPECT_EQ(got[t][r], expected[(t + r) % kThreads])
                << "thread " << t << " round " << r;
    }
}

TEST(SpeechDnCnnTest, SpatialCapBoundsFeatureHeight)
{
    // The stem pool caps the channel-axis extent near spatialCap so
    // conv cost scales through growth/depth, not raw map height.
    Network cnn = buildSpeechDnCnn(4096);
    bool found_capped = false;
    for (std::size_t i = 0; i < cnn.layerCount(); ++i) {
        const Shape &s = cnn.shapeAfter(i);
        if (s.size() == 3 && s[1] <= 160 && s[2] <= 16) {
            found_capped = true;
            break;
        }
    }
    EXPECT_TRUE(found_capped);
}

/** Property sweep: model invariants across channel counts. */
class ModelScalingSweep
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ModelScalingSweep, MacsMonotoneInChannels)
{
    std::uint64_t n = GetParam();
    EXPECT_GE(buildSpeechMlp(n + 256).totalMacs(),
              buildSpeechMlp(n).totalMacs());
    EXPECT_GE(buildSpeechDnCnn(n + 256).totalMacs(),
              buildSpeechDnCnn(n).totalMacs());
}

TEST_P(ModelScalingSweep, WeightsMonotoneInChannels)
{
    std::uint64_t n = GetParam();
    EXPECT_GE(buildSpeechMlp(n + 256).totalWeights(),
              buildSpeechMlp(n).totalWeights());
}

TEST_P(ModelScalingSweep, CensusConsistentWithTotals)
{
    std::uint64_t n = GetParam();
    Network mlp = buildSpeechMlp(n);
    EXPECT_EQ(totalMacs(mlp.census()), mlp.totalMacs());
}

INSTANTIATE_TEST_SUITE_P(Channels, ModelScalingSweep,
                         ::testing::Values(128u, 256u, 512u, 1024u,
                                           2048u, 4096u));

} // namespace
} // namespace mindful::dnn
