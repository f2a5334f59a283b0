/**
 * @file
 * Digital filter tests: frequency-response properties of the biquad
 * designs, verified both analytically (magnitudeAt) and by filtering
 * actual sinusoids.
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

/**
 * The first @p count of the spike band's sections and a high-Q 60 Hz
 * high-pass.
 */
BiquadCascade
mixedCascade(std::size_t count)
{
    std::vector<Biquad> pool{
        Biquad::highPass(Frequency::hertz(300.0), kFs, 0.5412),
        Biquad::highPass(Frequency::hertz(300.0), kFs, 1.3066),
        Biquad::lowPass(Frequency::kilohertz(3.0), kFs, 0.5412),
        Biquad::lowPass(Frequency::kilohertz(3.0), kFs, 1.3066),
        Biquad::highPass(Frequency::hertz(60.0), kFs, 5.0)};
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
        {"lowPassPair",
         BiquadCascade({Biquad::lowPass(Frequency::hertz(300.0), kFs, 0.5412),
                        Biquad::lowPass(Frequency::hertz(300.0), kFs,
                                        1.3066)})}};
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

TEST(FilterDeathTest, InvalidDesignsPanic)
{
    EXPECT_DEATH(Biquad::lowPass(Frequency::kilohertz(5.0), kFs),
                 "fs/2");
}

} // namespace
} // namespace mindful::signal
