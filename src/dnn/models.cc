#include "dnn/models.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "base/logging.hh"
#include "dnn/activation.hh"
#include "dnn/conv.hh"
#include "dnn/dense.hh"
#include "dnn/pooling.hh"

namespace mindful::dnn {

double
scalingAlpha(std::uint64_t channels, std::size_t base_channels)
{
    MINDFUL_ASSERT(channels > 0, "channel count must be positive");
    MINDFUL_ASSERT(base_channels > 0, "base channel count must be positive");
    return static_cast<double>(channels) /
           static_cast<double>(base_channels);
}

std::size_t
extraDepth(double alpha)
{
    if (alpha <= 1.0)
        return 0;
    return static_cast<std::size_t>(
        std::max<long long>(0, std::llround(std::log2(alpha))));
}

std::size_t
scaledWidth(std::size_t base, double alpha)
{
    auto width = static_cast<std::size_t>(
        std::llround(static_cast<double>(base) * alpha));
    return std::max<std::size_t>(1, width);
}

Network
buildSpeechMlp(std::uint64_t channels, const MlpSpec &spec)
{
    const double alpha = scalingAlpha(channels, spec.baseChannels);

    const std::size_t input =
        static_cast<std::size_t>(channels) * spec.windowSamples;
    const std::size_t wide =
        scaledWidth(spec.wideFactor * spec.baseChannels, alpha);
    const std::size_t latent = spec.latentWidth;
    const std::size_t trunk = scaledWidth(spec.baseTrunkWidth, alpha);
    const std::size_t trunk_depth =
        std::max<std::size_t>(1, spec.baseTrunkDepth + extraDepth(alpha));

    Network net("speech-mlp n=" + std::to_string(channels), Shape{input});

    net.emplace<DenseLayer>(input, wide);
    net.emplace<ReluLayer>();
    net.emplace<DenseLayer>(wide, latent);
    net.emplace<ReluLayer>();
    net.emplace<DenseLayer>(latent, trunk);
    net.emplace<ReluLayer>();
    for (std::size_t i = 1; i < trunk_depth; ++i) {
        net.emplace<DenseLayer>(trunk, trunk);
        net.emplace<ReluLayer>();
    }
    net.emplace<DenseLayer>(trunk, spec.outputLabels);
    net.emplace<SoftmaxLayer>();
    return net;
}

Network
buildSpeechDnCnn(std::uint64_t channels, const DnCnnSpec &spec)
{
    const double alpha = scalingAlpha(channels, spec.baseChannels);

    const std::size_t growth = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(
               static_cast<double>(spec.baseGrowth) * std::sqrt(alpha))));
    const std::size_t stages =
        std::max<std::size_t>(1, spec.baseStagesPerBlock + extraDepth(alpha));

    Network net("speech-dn-cnn n=" + std::to_string(channels),
                Shape{1, static_cast<std::size_t>(channels),
                      spec.windowSamples});

    // Stem: extract `growth` feature maps from the raw window.
    net.emplace<Conv2dLayer>(1, growth, 3, 3, 1, Padding::Same);
    net.emplace<ReluLayer>();

    // Cap the channel axis at spatialCap rows so downstream conv cost
    // scales through growth/depth rather than raw map height.
    std::size_t rows = static_cast<std::size_t>(channels);
    std::size_t cols = spec.windowSamples;
    const std::size_t stem_pool =
        std::max<std::size_t>(1, rows / spec.spatialCap);
    if (stem_pool > 1) {
        net.emplace<Pool2dLayer>(PoolKind::Max, stem_pool, 1);
        rows /= stem_pool;
    }
    // A 2 x 2 pool, clamped to the map: below 4 channels a pool can
    // meet a one-row map. From 4 channels on every window is 2 x 2.
    auto halve = [&](PoolKind kind) {
        const std::size_t kh = std::min<std::size_t>(2, rows);
        const std::size_t kw = std::min<std::size_t>(2, cols);
        net.emplace<Pool2dLayer>(kind, kh, kw);
        rows /= kh;
        cols /= kw;
    };
    halve(PoolKind::Max);

    // Dense block 1.
    std::size_t feature_channels = growth;
    for (std::size_t s = 0; s < stages; ++s) {
        net.emplace<DenseStage2dLayer>(feature_channels, growth, 3, 3);
        feature_channels += growth;
    }

    halve(PoolKind::Average);

    // Dense block 2.
    for (std::size_t s = 0; s < stages; ++s) {
        net.emplace<DenseStage2dLayer>(feature_channels, growth, 3, 3);
        feature_channels += growth;
    }

    net.emplace<GlobalAvgPoolLayer>();
    net.emplace<DenseLayer>(feature_channels, spec.outputLabels);
    net.emplace<SoftmaxLayer>();
    return net;
}

} // namespace mindful::dnn
