/**
 * @file
 * Synthetic cortical recording generator.
 *
 * The paper's analyses depend only on data *rates*, but the
 * end-to-end examples and the decoder / accelerator tests need
 * realistic waveforms. SyntheticCortex produces multi-channel
 * extracellular-style traces with a controllable ground truth:
 *
 *  - a low-dimensional latent "intent" signal (e.g., 2-D cursor
 *    velocity) evolving as an Ornstein-Uhlenbeck process;
 *  - per-channel neurons whose firing rates are cosine-tuned to the
 *    intent (the classic motor-cortex model behind Kalman decoders);
 *  - biphasic spike waveforms, shared low-frequency LFP oscillations,
 *    and pink-ish background noise;
 *  - a configurable fraction of *inactive* channels, which is what
 *    the channel-dropout optimization (Sec. 6.2) exploits.
 *
 * This substitutes for in-vivo data per DESIGN.md Sec. 3 item 5.
 */

#ifndef MINDFUL_NI_SYNTHETIC_CORTEX_HH
#define MINDFUL_NI_SYNTHETIC_CORTEX_HH

#include <cstdint>
#include <vector>

#include "base/random.hh"
#include "base/units.hh"

namespace mindful::ni {

/** Generator parameters. */
struct SyntheticCortexConfig
{
    std::uint64_t channels = 64;
    Frequency samplingFrequency = Frequency::kilohertz(8.0);

    /** Dimensionality of the latent intent signal. */
    unsigned latentDims = 2;

    /** Correlation time of the intent process [s]. */
    double intentTimeConstant = 0.4;

    /** Baseline firing rate of tuned neurons [Hz]. */
    double baseRateHz = 5.0;

    /** Peak modulated firing rate [Hz]. */
    double maxRateHz = 60.0;

    /** Firing rate of untuned (inactive) channels [Hz]. */
    double inactiveRateHz = 0.5;

    /** Fraction of channels carrying a tuned neuron, in [0, 1]. */
    double activeFraction = 0.6;

    /** Peak-to-trough spike amplitude [uV]. */
    double spikeAmplitudeUv = 120.0;

    /** RMS of the background noise [uV]. */
    double noiseRmsUv = 8.0;

    /** Amplitude of the shared LFP oscillation [uV]. */
    double lfpAmplitudeUv = 30.0;

    /** RNG seed; equal seeds give identical recordings. */
    std::uint64_t seed = 0x636f7274ull;
};

/** A generated multi-channel recording with its ground truth. */
struct Recording
{
    std::uint64_t channels = 0;
    std::size_t steps = 0;
    Frequency samplingFrequency;

    /** Channel-major sample buffer [channel * steps + t], in uV. */
    std::vector<double> samples;

    /** Channel-major spike raster (spikes initiated at step t). */
    std::vector<std::uint8_t> spikeRaster;

    /** Latent intent trajectory [dim][t]. */
    std::vector<std::vector<double>> intent;

    double
    sample(std::uint64_t channel, std::size_t t) const
    {
        return samples[channel * steps + t];
    }

    bool
    spikeAt(std::uint64_t channel, std::size_t t) const
    {
        return spikeRaster[channel * steps + t] != 0;
    }

    /** Total spikes emitted on @p channel. */
    std::uint64_t spikeCount(std::uint64_t channel) const;

    /**
     * Spike counts per non-overlapping bin of @p bin_steps samples:
     * the feature the Kalman decoder consumes.
     * @return [channel][bin] counts.
     */
    std::vector<std::vector<double>> binnedCounts(std::size_t bin_steps) const;

    /** Intent averaged over the same bins, [dim][bin]. */
    std::vector<std::vector<double>> binnedIntent(std::size_t bin_steps) const;
};

/** Deterministic synthetic cortical signal source. */
class SyntheticCortex
{
  public:
    explicit SyntheticCortex(SyntheticCortexConfig config);

    const SyntheticCortexConfig &config() const { return _config; }

    /** Preferred-direction (tuning) vector of @p channel; empty if
     *  the channel is untuned. */
    const std::vector<double> &tuning(std::uint64_t channel) const;

    /** True if @p channel carries a tuned neuron. */
    bool isActive(std::uint64_t channel) const;

    /** Number of tuned channels. */
    std::uint64_t activeChannels() const { return _activeCount; }

    /** Generate @p steps samples on every channel. */
    Recording generate(std::size_t steps);

  private:
    SyntheticCortexConfig _config;
    Rng _rng;
    std::vector<std::vector<double>> _tuning; //!< empty => inactive
    std::uint64_t _activeCount = 0;
    std::vector<double> _spikeKernel;         //!< biphasic template, uV
    std::uint64_t _generateCalls = 0; //!< per-call fork stream blocks
};

} // namespace mindful::ni

#endif // MINDFUL_NI_SYNTHETIC_CORTEX_HH
