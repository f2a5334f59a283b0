/**
 * @file
 * Reference BCI decoding models (paper Sec. 5.3).
 *
 * The paper evaluates two speech-synthesis decoders from
 * Berezutskaya et al. 2023, published for 128 ECoG channels sampled
 * at 2 kHz with a 40-label output (one per synthesized speech
 * frequency): a multi-layer perceptron (MLP) and a DenseNet-style
 * CNN (DN-CNN). The exact layer dimensions are not given in the
 * paper, so this module defines representative architectures at the
 * published operating point and scales them with
 *
 *     alpha = n / base_channels            (Sec. 5.3 "Scaling Factor")
 *
 * following the paper's rule: layer widths scale with alpha and the
 * network depth grows with alpha (we add round(log2 alpha) layers).
 * Base sizes are calibrated so the headline feasibility results of
 * Fig. 10 hold; see DESIGN.md Sec. 3 item 4.
 */

#ifndef MINDFUL_DNN_MODELS_HH
#define MINDFUL_DNN_MODELS_HH

#include <cstdint>

#include "dnn/network.hh"

namespace mindful::dnn {

/** Parameters shared by both speech models. */
struct SpeechModelSpec
{
    /** Channel count the published model was designed for. */
    std::size_t baseChannels = 128;

    /** Output labels (synthesized speech frequencies). */
    std::size_t outputLabels = 40;
};

/** MLP structure knobs. */
struct MlpSpec : SpeechModelSpec
{
    /** Input window length in samples per channel. */
    std::size_t windowSamples = 12;

    /** First hidden width as a multiple of the channel count. */
    std::size_t wideFactor = 2;

    /** Fixed width of the latent bottleneck (the Sec. 6.1 cut). */
    std::size_t latentWidth = 1024;

    /** Trunk width at alpha = 1 (scales with alpha). */
    std::size_t baseTrunkWidth = 192;

    /** Trunk depth at alpha = 1 (grows with extraDepth(alpha)). */
    std::size_t baseTrunkDepth = 2;
};

/** DN-CNN structure knobs. */
struct DnCnnSpec : SpeechModelSpec
{
    /** Input window length in samples per channel. */
    std::size_t windowSamples = 16;

    /** DenseNet growth rate at alpha = 1 (scales with sqrt(alpha)). */
    std::size_t baseGrowth = 11;

    /** Dense stages per block at alpha = 1. */
    std::size_t baseStagesPerBlock = 3;

    /** Feature-map height cap after the stem pool. */
    std::size_t spatialCap = 128;
};

/** alpha = n / base (Sec. 5.3). */
double scalingAlpha(std::uint64_t channels, std::size_t base_channels);

/** Extra network depth added at scale: max(0, round(log2 alpha)). */
std::size_t extraDepth(double alpha);

/** Width scaled by alpha, clamped to at least 1. */
std::size_t scaledWidth(std::size_t base, double alpha);

/**
 * Build the MLP speech decoder for @p channels NI channels.
 *
 * Structure: [window * n] -> 2n -> latent(1024) -> trunk stack -> 40,
 * ReLU between dense layers. The fixed-width latent bottleneck is
 * the natural Sec. 6.1 partition cut; the trunk behind it scales in
 * both width and depth with alpha, so partitioning frees a
 * meaningful (but shrinking) share of compute as the system scales.
 */
Network buildSpeechMlp(std::uint64_t channels, const MlpSpec &spec = {});

/**
 * Build the DN-CNN speech decoder for @p channels NI channels.
 *
 * Structure: stem conv -> pools -> two DenseNet blocks -> global
 * average pool -> dense classifier. All intermediate feature maps
 * are much larger than the NI channel count, which is why DNN
 * partitioning does not help this model (Fig. 11). Every n >= 1
 * builds: below 4 channels a 2 x 2 pool that meets a one-row map
 * shrinks to 1 x 2.
 */
Network buildSpeechDnCnn(std::uint64_t channels, const DnCnnSpec &spec = {});

} // namespace mindful::dnn

#endif // MINDFUL_DNN_MODELS_HH
