/**
 * @file
 * Digital filter tests: frequency-response properties of the biquad
 * and FIR designs, verified both analytically (magnitudeAt) and by
 * filtering actual sinusoids.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>
#include <string>
#include <utility>
#include <vector>

#include "signal/filters.hh"

namespace mindful::signal {
namespace {

const Frequency kFs = Frequency::kilohertz(8.0);

/** RMS of the steady-state response to a unit sinusoid at freq. */
template <typename Filter>
double
measureGain(Filter &filter, double freq_hz)
{
    const double fs = kFs.inHertz();
    const int settle = 2000;
    const int measure = 4000;
    double energy = 0.0;
    for (int i = 0; i < settle + measure; ++i) {
        double x = std::sin(2.0 * std::numbers::pi * freq_hz *
                            static_cast<double>(i) / fs);
        double y = filter.step(x);
        if (i >= settle)
            energy += y * y;
    }
    return std::sqrt(2.0 * energy / measure); // amplitude of response
}

TEST(BiquadTest, DefaultIsIdentity)
{
    Biquad identity;
    for (double x : {1.0, -2.0, 0.5})
        EXPECT_DOUBLE_EQ(identity.step(x), x);
}

TEST(BiquadTest, LowPassMagnitudeResponse)
{
    Biquad lp = Biquad::lowPass(Frequency::hertz(500.0), kFs);
    EXPECT_NEAR(lp.magnitudeAt(Frequency::hertz(1.0), kFs), 1.0, 1e-3);
    EXPECT_NEAR(lp.magnitudeAt(Frequency::hertz(500.0), kFs),
                1.0 / std::sqrt(2.0), 1e-3);
    EXPECT_LT(lp.magnitudeAt(Frequency::kilohertz(3.0), kFs), 0.05);
}

TEST(BiquadTest, HighPassMagnitudeResponse)
{
    Biquad hp = Biquad::highPass(Frequency::hertz(300.0), kFs);
    EXPECT_LT(hp.magnitudeAt(Frequency::hertz(10.0), kFs), 0.01);
    EXPECT_NEAR(hp.magnitudeAt(Frequency::hertz(300.0), kFs),
                1.0 / std::sqrt(2.0), 1e-3);
    EXPECT_NEAR(hp.magnitudeAt(Frequency::kilohertz(3.0), kFs), 1.0, 0.02);
}

TEST(BiquadTest, NotchKillsCentreFrequency)
{
    Biquad notch = Biquad::notch(Frequency::hertz(60.0), kFs, 5.0);
    EXPECT_LT(notch.magnitudeAt(Frequency::hertz(60.0), kFs), 1e-6);
    EXPECT_NEAR(notch.magnitudeAt(Frequency::hertz(600.0), kFs), 1.0, 0.05);
}

TEST(BiquadTest, TimeDomainMatchesMagnitudeResponse)
{
    Biquad lp = Biquad::lowPass(Frequency::hertz(500.0), kFs);
    Biquad analyzer = lp;
    for (double f : {100.0, 500.0, 2000.0}) {
        lp.reset();
        double measured = measureGain(lp, f);
        double predicted = analyzer.magnitudeAt(Frequency::hertz(f), kFs);
        EXPECT_NEAR(measured, predicted, 0.02) << "f = " << f;
    }
}

TEST(BiquadTest, ResetClearsState)
{
    Biquad lp = Biquad::lowPass(Frequency::hertz(500.0), kFs);
    double first = lp.step(1.0);
    lp.step(1.0);
    lp.reset();
    EXPECT_DOUBLE_EQ(lp.step(1.0), first);
}

TEST(BiquadCascadeTest, SpikeBandPassesSpikesRejectsLfp)
{
    auto cascade = BiquadCascade::spikeBand(kFs);
    EXPECT_EQ(cascade.sections(), 4u);

    // 1 kHz (spike band) should pass, 10 Hz (LFP) should not.
    double spike_gain = measureGain(cascade, 1000.0);
    cascade.reset();
    double lfp_gain = measureGain(cascade, 10.0);
    EXPECT_GT(spike_gain, 0.8);
    EXPECT_LT(lfp_gain, 0.01);
}

TEST(BiquadCascadeTest, LfpBandDoesTheOpposite)
{
    auto cascade = BiquadCascade::lfpBand(kFs);
    double lfp_gain = measureGain(cascade, 20.0);
    cascade.reset();
    double spike_gain = measureGain(cascade, 2000.0);
    EXPECT_GT(lfp_gain, 0.95);
    EXPECT_LT(spike_gain, 0.02);
}

/** The first @p count of the spike band's sections and a 60 Hz notch. */
BiquadCascade
mixedCascade(std::size_t count)
{
    std::vector<Biquad> pool{
        Biquad::highPass(Frequency::hertz(300.0), kFs, 0.5412),
        Biquad::highPass(Frequency::hertz(300.0), kFs, 1.3066),
        Biquad::lowPass(Frequency::kilohertz(3.0), kFs, 0.5412),
        Biquad::lowPass(Frequency::kilohertz(3.0), kFs, 1.3066),
        Biquad::notch(Frequency::hertz(60.0), kFs, 5.0)};
    return BiquadCascade(
        std::vector<Biquad>(pool.begin(),
                            pool.begin() + static_cast<std::ptrdiff_t>(count)));
}

/** Deterministic broadband input: a chirp plus a few outliers. */
std::vector<double>
testSignal(std::size_t length, double phase)
{
    std::vector<double> input(length);
    for (std::size_t i = 0; i < length; ++i) {
        const double t = static_cast<double>(i);
        input[i] = 40.0 * std::sin(phase + 0.3 * t + 1e-3 * t * t) +
                   (i % 37 == 5 ? -250.0 : 0.0);
    }
    return input;
}

/**
 * apply() must equal a step() loop bit for bit: same sections run in
 * the same order with the same expression, only the state lives in
 * locals. Covers the empty cascade and every fused-block remainder
 * (1-5 sections), state carried over two calls, and lengths around
 * one 150-sample hop.
 */
TEST(BiquadCascadeTest, ApplyMatchesStepping)
{
    std::vector<std::pair<std::string, BiquadCascade>> cascades{
        {"spikeBand", BiquadCascade::spikeBand(kFs)},
        {"lfpBand", BiquadCascade::lfpBand(kFs)}};
    for (std::size_t count = 0; count <= 5; ++count)
        cascades.emplace_back("sections=" + std::to_string(count),
                              mixedCascade(count));
    for (const auto &[name, fresh] : cascades) {
        for (const std::size_t length : {0u, 1u, 149u, 150u, 151u}) {
            BiquadCascade applied = fresh;
            BiquadCascade stepped = fresh;
            for (int call = 0; call < 2; ++call) {
                const auto input = testSignal(length, call);
                const auto block = applied.apply(input);
                std::vector<double> reference;
                for (double x : input)
                    reference.push_back(stepped.step(x));
                ASSERT_EQ(block.size(), reference.size());
                // memcmp must not see the null data() of empty vectors.
                EXPECT_TRUE(block.empty() ||
                            std::memcmp(block.data(), reference.data(),
                                        block.size() * sizeof(double)) == 0)
                    << name << " length=" << length << " call=" << call;
            }
            // Both must leave the same state behind.
            EXPECT_EQ(applied.step(1.0), stepped.step(1.0))
                << name << " length=" << length;
        }
    }
}

TEST(FirFilterTest, LowPassDcGainIsUnity)
{
    auto fir = FirFilter::designLowPass(Frequency::hertz(500.0), kFs, 63);
    EXPECT_NEAR(fir.magnitudeAt(Frequency::hertz(0.001), kFs), 1.0, 1e-6);
}

TEST(FirFilterTest, LowPassStopbandAttenuates)
{
    auto fir = FirFilter::designLowPass(Frequency::hertz(500.0), kFs, 63);
    EXPECT_LT(fir.magnitudeAt(Frequency::kilohertz(2.0), kFs), 0.01);
}

/** Property sweep over cutoff frequencies. */
class FirCutoffSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(FirCutoffSweep, HalfPowerNearCutoff)
{
    double fc = GetParam();
    auto fir = FirFilter::designLowPass(Frequency::hertz(fc), kFs, 127);
    double gain = fir.magnitudeAt(Frequency::hertz(fc), kFs);
    // Windowed-sinc puts ~-6 dB at the design cutoff.
    EXPECT_NEAR(gain, 0.5, 0.1);
    EXPECT_GT(fir.magnitudeAt(Frequency::hertz(fc * 0.5), kFs), 0.9);
    EXPECT_LT(fir.magnitudeAt(Frequency::hertz(fc * 2.0), kFs), 0.12);
}

INSTANTIATE_TEST_SUITE_P(Cutoffs, FirCutoffSweep,
                         ::testing::Values(200.0, 400.0, 800.0, 1500.0));

TEST(FirFilterTest, BandPassSelectsBand)
{
    auto fir = FirFilter::designBandPass(Frequency::hertz(300.0),
                                         Frequency::kilohertz(3.0), kFs,
                                         127);
    EXPECT_GT(fir.magnitudeAt(Frequency::kilohertz(1.0), kFs), 0.9);
    EXPECT_LT(fir.magnitudeAt(Frequency::hertz(30.0), kFs), 0.05);
    EXPECT_LT(fir.magnitudeAt(Frequency::hertz(3900.0), kFs), 0.3);
}

TEST(FirFilterTest, ImpulseResponseEqualsTaps)
{
    auto fir = FirFilter::designLowPass(Frequency::hertz(400.0), kFs, 15);
    std::vector<double> impulse(15, 0.0);
    impulse[0] = 1.0;
    auto response = fir.apply(impulse);
    for (std::size_t i = 0; i < 15; ++i)
        EXPECT_NEAR(response[i], fir.taps()[i], 1e-15);
}

TEST(FirFilterTest, ResetClearsDelayLine)
{
    auto fir = FirFilter::designLowPass(Frequency::hertz(400.0), kFs, 15);
    double first = fir.step(1.0);
    fir.step(0.5);
    fir.reset();
    EXPECT_DOUBLE_EQ(fir.step(1.0), first);
}

TEST(FilterDeathTest, InvalidDesignsPanic)
{
    EXPECT_DEATH(Biquad::lowPass(Frequency::kilohertz(5.0), kFs),
                 "fs/2");
    EXPECT_DEATH(FirFilter::designLowPass(Frequency::hertz(100.0), kFs, 2),
                 "3 taps");
}

} // namespace
} // namespace mindful::signal
