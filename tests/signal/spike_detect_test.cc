/**
 * @file
 * Spike-detector tests on constructed and synthetic traces.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "base/random.hh"
#include "ni/synthetic_cortex.hh"
#include "signal/filters.hh"
#include "signal/spike_detect.hh"

namespace mindful::signal {
namespace {

/** White-noise trace with biphasic spikes injected at known times. */
std::vector<double>
makeTrace(const std::vector<std::size_t> &spike_times, double noise_rms,
          double amplitude, std::size_t length, std::uint64_t seed = 77)
{
    Rng rng(seed);
    std::vector<double> trace(length);
    for (auto &v : trace)
        v = rng.gaussian(0.0, noise_rms);
    for (std::size_t t0 : spike_times) {
        static const double kernel[] = {-0.2, -0.7, -1.0, -0.6, 0.1,
                                        0.3,  0.2,  0.1};
        for (std::size_t s = 0; s < 8 && t0 + s < length; ++s)
            trace[t0 + s] += amplitude * kernel[s];
    }
    return trace;
}

TEST(MadNoiseTest, MatchesGaussianSigma)
{
    Rng rng(5);
    std::vector<double> noise(20000);
    for (auto &v : noise)
        v = rng.gaussian(0.0, 7.0);
    EXPECT_NEAR(madNoiseEstimate(noise), 7.0, 0.3);
}

TEST(MadNoiseTest, RobustToSpikeOutliers)
{
    // Classic motivation for MAD: spikes barely move the estimate.
    auto clean = makeTrace({}, 5.0, 0.0, 20000);
    auto spiky = makeTrace({100, 500, 900, 4000, 9000, 15000}, 5.0, 120.0,
                           20000);
    EXPECT_NEAR(madNoiseEstimate(spiky), madNoiseEstimate(clean), 0.5);
}

/** madNoiseEstimate as std::nth_element computes it. */
double
referenceMad(const std::vector<double> &trace)
{
    std::vector<double> magnitudes;
    for (double v : trace)
        magnitudes.push_back(std::abs(v));
    auto mid = magnitudes.begin() +
               static_cast<std::ptrdiff_t>(magnitudes.size() / 2);
    std::nth_element(magnitudes.begin(), mid, magnitudes.end());
    return *mid / 0.6745;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(MadNoiseTest, MatchesNthElementBitwise)
{
    Rng rng(29);
    for (std::size_t n = 1; n <= 301; ++n) {
        std::vector<double> distinct(n);
        for (auto &v : distinct)
            v = rng.gaussian(0.0, 8.0);
        // Few distinct magnitudes: heavy ties on both signs.
        std::vector<double> ties(n);
        for (auto &v : ties)
            v = static_cast<double>(rng.uniformInt(-3, 3));
        const std::vector<double> equal(n, -2.5);
        // Signed zeros among a few non-zero values.
        std::vector<double> zeros(n);
        for (std::size_t i = 0; i < n; ++i)
            zeros[i] = i % 3 == 0 ? -0.0 : i % 3 == 1 ? 0.0 : 1.0;
        const std::vector<double> negative_zeros(n, -0.0);
        const std::vector<double> *traces[] = {&distinct, &ties, &equal,
                                               &zeros, &negative_zeros};
        for (const auto *trace : traces) {
            const double got = madNoiseEstimate(*trace);
            const double want = referenceMad(*trace);
            ASSERT_TRUE(sameBits(got, want))
                << "n=" << n << " got " << got << " want " << want;
        }
    }
}

TEST(MadNoiseTest, NanTraceTerminatesInBounds)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    Rng rng(31);
    for (const std::size_t n : {1u, 2u, 3u, 150u, 151u}) {
        const std::size_t stride = std::max<std::size_t>(1, n / 7);
        for (std::size_t at = 0; at < n; at += stride) {
            std::vector<double> trace(n);
            for (auto &v : trace)
                v = rng.gaussian(0.0, 8.0);
            trace[at] = nan;
            madNoiseEstimate(trace); // any value; it must return
            ThresholdDetector detector;
            for (const auto &event : detector.detect(trace))
                EXPECT_LT(event.sampleIndex, n);
        }
        madNoiseEstimate(std::vector<double>(n, nan));
    }
}

/** ThresholdDetector::detect with nth_element and the peak walk. */
std::vector<SpikeEvent>
referenceDetect(const std::vector<double> &trace,
                const SpikeDetectorConfig &config)
{
    if (trace.empty())
        return {};
    const double sigma = referenceMad(trace);
    if (sigma <= 0.0)
        return {};
    const double threshold = config.thresholdSigmas * sigma;
    auto crossed = [&](double v) {
        return config.negativeGoing ? v <= -threshold : v >= threshold;
    };
    auto better = [&](double v, double peak) {
        return config.negativeGoing ? v < peak : v > peak;
    };
    std::vector<SpikeEvent> events;
    std::size_t i = 0;
    while (i < trace.size()) {
        if (!crossed(trace[i])) {
            ++i;
            continue;
        }
        std::size_t peak = i;
        std::size_t j = i;
        for (; j < trace.size() && crossed(trace[j]); ++j)
            if (better(trace[j], trace[peak]))
                peak = j;
        events.push_back({peak, trace[peak]});
        i = std::max(j, peak + config.refractorySamples);
    }
    return events;
}

TEST(ThresholdDetectorTest, MatchesReferenceOnFilteredCortexHops)
{
    // The streamed loop's shape: 256 channels, 150-sample hops, one
    // stateful spike-band cascade per channel.
    constexpr std::size_t kChannels = 256;
    constexpr std::size_t kHop = 150;
    constexpr std::size_t kHops = 4;
    ni::SyntheticCortexConfig config;
    config.channels = kChannels;
    config.samplingFrequency = Frequency::kilohertz(30.0);
    config.seed = 1016;
    ni::SyntheticCortex cortex(config);
    const auto rec = cortex.generate(kHop * kHops);

    ThresholdDetector detector;
    std::size_t total = 0;
    for (std::uint64_t ch = 0; ch < kChannels; ++ch) {
        auto cascade = BiquadCascade::spikeBand(rec.samplingFrequency);
        for (std::size_t hop = 0; hop < kHops; ++hop) {
            const double *x = &rec.samples[ch * rec.steps + hop * kHop];
            const auto filtered =
                cascade.apply(std::vector<double>(x, x + kHop));
            const auto got = detector.detect(filtered);
            const auto want = referenceDetect(filtered, detector.config());
            ASSERT_EQ(got.size(), want.size())
                << "ch=" << ch << " hop=" << hop;
            for (std::size_t e = 0; e < got.size(); ++e) {
                EXPECT_EQ(got[e].sampleIndex, want[e].sampleIndex);
                EXPECT_TRUE(sameBits(got[e].amplitude, want[e].amplitude));
            }
            total += got.size();
        }
    }
    EXPECT_GT(total, 0u) << "no spikes: the comparison saw no events";
}

TEST(ThresholdDetectorTest, FindsInjectedSpikes)
{
    std::vector<std::size_t> truth{200, 1000, 2500, 4000, 7000};
    auto trace = makeTrace(truth, 4.0, 90.0, 10000);
    ThresholdDetector detector;
    auto events = detector.detect(trace);
    ASSERT_EQ(events.size(), truth.size());
    for (std::size_t i = 0; i < truth.size(); ++i) {
        // Peak lands within the 8-sample waveform of the onset.
        EXPECT_GE(events[i].sampleIndex, truth[i]);
        EXPECT_LE(events[i].sampleIndex, truth[i] + 8);
        EXPECT_LT(events[i].amplitude, 0.0); // negative-going
    }
}

TEST(ThresholdDetectorTest, NoSpikesInPureNoise)
{
    auto trace = makeTrace({}, 4.0, 0.0, 20000);
    ThresholdDetector detector;
    // 4.5 sigma on Gaussian noise: expected false positives ~ 0.07;
    // allow a small number for robustness.
    EXPECT_LE(detector.detect(trace).size(), 2u);
}

TEST(ThresholdDetectorTest, RefractoryMergesAdjacentCrossings)
{
    std::vector<std::size_t> truth{1000, 1004}; // overlapping waveforms
    auto trace = makeTrace(truth, 2.0, 90.0, 4000);
    SpikeDetectorConfig config;
    config.refractorySamples = 32;
    ThresholdDetector detector(config);
    EXPECT_EQ(detector.detect(trace).size(), 1u);
}

TEST(ThresholdDetectorTest, PositiveGoingMode)
{
    std::vector<double> trace(2000, 0.0);
    Rng rng(3);
    for (auto &v : trace)
        v = rng.gaussian(0.0, 1.0);
    trace[700] = 60.0;
    SpikeDetectorConfig config;
    config.negativeGoing = false;
    ThresholdDetector detector(config);
    auto events = detector.detect(trace);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].sampleIndex, 700u);
    EXPECT_GT(events[0].amplitude, 0.0);
}

TEST(ThresholdDetectorTest, EmptyTraceReturnsNothing)
{
    ThresholdDetector detector;
    EXPECT_TRUE(detector.detect({}).empty());
}

TEST(NeoDetectorTest, EnergyOperatorDefinition)
{
    std::vector<double> x{1.0, 2.0, 3.0, 5.0, 2.0};
    auto psi = NeoDetector::energy(x);
    ASSERT_EQ(psi.size(), 5u);
    EXPECT_DOUBLE_EQ(psi[0], 0.0);
    EXPECT_DOUBLE_EQ(psi[1], 4.0 - 3.0);
    EXPECT_DOUBLE_EQ(psi[2], 9.0 - 10.0);
    EXPECT_DOUBLE_EQ(psi[3], 25.0 - 6.0);
    EXPECT_DOUBLE_EQ(psi[4], 0.0);
}

TEST(NeoDetectorTest, FindsInjectedSpikes)
{
    std::vector<std::size_t> truth{500, 2000, 5000};
    auto trace = makeTrace(truth, 4.0, 100.0, 8000);
    SpikeDetectorConfig config;
    config.thresholdSigmas = 8.0; // NEO thresholds on mean energy
    NeoDetector detector(config);
    auto events = detector.detect(trace);
    ASSERT_GE(events.size(), truth.size());
    // Every true spike has a detection nearby.
    for (std::size_t t0 : truth) {
        bool found = false;
        for (const auto &e : events)
            found |= e.sampleIndex >= t0 && e.sampleIndex <= t0 + 8;
        EXPECT_TRUE(found) << "missed spike at " << t0;
    }
}

TEST(NeoDetectorTest, ShortTraceIsSafe)
{
    NeoDetector detector;
    EXPECT_TRUE(detector.detect({1.0, 2.0}).empty());
}

TEST(DetectorIntegrationTest, SyntheticCortexSpikeRecovery)
{
    // End-to-end: generate a realistic channel, band-pass it, detect,
    // and compare against the generator's ground-truth raster.
    ni::SyntheticCortexConfig config;
    config.channels = 1;
    config.activeFraction = 1.0;
    config.maxRateHz = 40.0;
    config.noiseRmsUv = 6.0;
    config.seed = 21;
    ni::SyntheticCortex cortex(config);
    auto rec = cortex.generate(40000); // 5 s @ 8 kHz

    std::vector<double> raw(rec.samples.begin(),
                            rec.samples.begin() + 40000);
    auto filtered =
        BiquadCascade::spikeBand(rec.samplingFrequency).apply(raw);

    ThresholdDetector detector;
    auto events = detector.detect(filtered);

    auto truth = rec.spikeCount(0);
    ASSERT_GT(truth, 20u);
    // Detection within +-40% of ground truth on a noisy channel.
    EXPECT_GT(static_cast<double>(events.size()), 0.6 * truth);
    EXPECT_LT(static_cast<double>(events.size()), 1.4 * truth);
}

} // namespace
} // namespace mindful::signal
