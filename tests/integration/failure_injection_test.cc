/**
 * @file
 * Failure-injection tests: the system's behaviour when the substrate
 * misbehaves — corrupted frames, noisy links at their design BER,
 * hostile solver inputs, non-converging thermal configurations, and
 * randomized catalog round trips.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "accel/lower_bound.hh"
#include "base/random.hh"
#include "comm/channel_sim.hh"
#include "comm/modulation.hh"
#include "comm/packetizer.hh"
#include "core/catalog_io.hh"
#include "core/scaling.hh"
#include "thermal/bioheat.hh"

namespace mindful {
namespace {

TEST(FailureInjectionTest, RandomBitFlipsNeverYieldWrongPayloads)
{
    // CRC-16 must never let a corrupted frame through as *valid with
    // different samples*. Inject 1-4 random bit flips into thousands
    // of frames; every accepted frame must carry the original
    // payload (single/odd flips are always caught by CRC-16; the
    // residual risk of 2^-16 for random multi-bit patterns makes
    // false accepts vanishingly unlikely at this trial count).
    comm::Packetizer packetizer({10});
    Rng rng(404);

    int accepted_corrupt = 0;
    for (int trial = 0; trial < 4000; ++trial) {
        std::vector<std::uint32_t> samples(32);
        for (auto &s : samples)
            s = static_cast<std::uint32_t>(rng.uniformInt(0, 1023));
        auto frame = packetizer.pack(
            static_cast<std::uint16_t>(trial), samples);

        int flips = static_cast<int>(rng.uniformInt(1, 4));
        for (int f = 0; f < flips; ++f) {
            auto byte = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(frame.size()) - 1));
            frame[byte] ^= static_cast<std::uint8_t>(
                1u << rng.uniformInt(0, 7));
        }

        auto unpacked = packetizer.unpack(frame);
        if (unpacked.valid && unpacked.samples != samples)
            ++accepted_corrupt;
    }
    EXPECT_EQ(accepted_corrupt, 0);
}

TEST(FailureInjectionTest, FrameLossAtDesignBerIsBounded)
{
    // At the Fig. 7 design point (BER 1e-6) a 1024-sample frame is
    // ~10.3 kb, so ~1% of frames carry an error. Emulate the link by
    // flipping each bit independently and measure the CRC-detected
    // frame error rate: it must track 1 - (1-BER)^bits and, crucially,
    // every surviving frame must be bit-exact.
    comm::Packetizer packetizer({10});
    Rng rng(405);
    const double ber = 1e-4; // accelerated for test runtime
    const int frames = 800;

    std::vector<std::uint32_t> samples(256);
    for (auto &s : samples)
        s = static_cast<std::uint32_t>(rng.uniformInt(0, 1023));

    int detected = 0;
    for (int trial = 0; trial < frames; ++trial) {
        auto frame = packetizer.pack(
            static_cast<std::uint16_t>(trial), samples);
        for (auto &byte : frame)
            for (int bit = 0; bit < 8; ++bit)
                if (rng.bernoulli(ber))
                    byte ^= static_cast<std::uint8_t>(1u << bit);

        auto unpacked = packetizer.unpack(frame);
        if (!unpacked.valid)
            ++detected;
        else
            EXPECT_EQ(unpacked.samples, samples);
    }
    double bits = static_cast<double>(packetizer.frameBits(256));
    double expected_fer = 1.0 - std::pow(1.0 - ber, bits);
    EXPECT_NEAR(static_cast<double>(detected) / frames, expected_fer,
                0.08);
}

TEST(FailureInjectionTest, LinkBelowRequiredEbN0MissesTheBerTarget)
{
    // Operating 3 dB under the derived requirement must measurably
    // violate the BER target — the link budget has no hidden slack.
    const double target = 1e-3;
    double required = comm::qamRequiredEbN0(4, target);
    comm::AwgnChannelSimulator sim(4, 42);
    double degraded = sim.measureBer(required / 2.0, 200000).ber();
    EXPECT_GT(degraded, 3.0 * target);
}

TEST(FailureInjectionTest, SolverSurvivesHostileCensuses)
{
    accel::LowerBoundSolver solver(accel::nangate45());
    // Empty census: trivially feasible at zero cost.
    auto empty = solver.solveBest({}, Time::microseconds(1.0));
    EXPECT_TRUE(empty.feasible);
    EXPECT_EQ(empty.macUnits, 0u);

    // Enormous single layer: infeasible, not hung or overflowed.
    std::vector<dnn::MacCensus> huge{{1ull << 40, 1ull << 30}};
    auto bound = solver.solveSharedPool(huge, Time::microseconds(1.0));
    EXPECT_FALSE(bound.feasible);

    // Degenerate 1x1 layer: exactly one unit.
    std::vector<dnn::MacCensus> unit{{1, 1}};
    auto tiny = solver.solveSharedPool(unit, Time::microseconds(1.0));
    ASSERT_TRUE(tiny.feasible);
    EXPECT_EQ(tiny.macUnits, 1u);
}

TEST(FailureInjectionDeathTest, BioHeatNonConvergencePanicsLoudly)
{
    thermal::BioHeatConfig config;
    config.gridSpacing = Length::millimetres(0.5);
    config.domainWidth = Length::millimetres(25.0);
    config.domainDepth = Length::millimetres(12.0);
    config.maxIterations = 3; // cannot possibly converge
    thermal::BioHeatSolver solver({}, config);
    EXPECT_DEATH(solver.solve(Power::milliwatts(10.0),
                              Area::squareMillimetres(64.0)),
                 "failed to converge");
}

/** Randomized catalog round trips (serialization fuzz). */
class CatalogFuzzSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(CatalogFuzzSweep, RandomDesignsRoundTrip)
{
    Rng rng(7000 + GetParam());
    std::vector<core::SocDesign> designs;
    for (int i = 0; i < 8; ++i) {
        core::SocDesign soc;
        soc.id = i;
        soc.name = "fuzz-" + std::to_string(GetParam()) + "-" +
                   std::to_string(i);
        soc.sensorType = rng.bernoulli(0.5) ? ni::SensorType::Spad
                                            : ni::SensorType::Electrode;
        soc.reportedChannels =
            static_cast<std::uint64_t>(rng.uniformInt(1, 100000));
        soc.reportedArea =
            Area::squareMillimetres(rng.uniform(0.1, 2000.0));
        soc.reportedPower = Power::milliwatts(rng.uniform(0.001, 100.0));
        soc.samplingFrequency =
            Frequency::kilohertz(rng.uniform(0.5, 40.0));
        soc.sampleBits = static_cast<unsigned>(rng.uniformInt(4, 16));
        soc.wireless = rng.bernoulli(0.5);
        soc.validatedInOrExVivo = rng.bernoulli(0.5);
        soc.recipe.law = rng.bernoulli(0.3)
                             ? core::ScalingLaw::Linear
                             : core::ScalingLaw::SqrtAreaLinearPower;
        soc.recipe.baseChannels = rng.bernoulli(0.3)
                                      ? 1024u
                                      : 0u;
        soc.recipe.areaCorrection = rng.uniform(0.01, 20.0);
        soc.recipe.powerCorrection = rng.uniform(0.01, 20.0);
        soc.sensingPowerFraction = rng.uniform(0.05, 0.95);
        soc.sensingAreaFraction = rng.uniform(0.05, 0.95);
        soc.commShareOfNonSensing = rng.uniform(0.0, 1.0);
        designs.push_back(soc);
    }

    auto reparsed =
        core::parseCatalogString(core::writeCatalogString(designs));
    ASSERT_EQ(reparsed.size(), designs.size());
    for (std::size_t i = 0; i < designs.size(); ++i) {
        // Round-trip the quantity that matters downstream: the scaled
        // operating point must be identical to double precision noise.
        auto original = core::scaleDesign(designs[i], 1024);
        auto copied = core::scaleDesign(reparsed[i], 1024);
        EXPECT_NEAR(copied.power.inWatts() / original.power.inWatts(),
                    1.0, 1e-4);
        EXPECT_NEAR(copied.area.inSquareMetres() /
                        original.area.inSquareMetres(),
                    1.0, 1e-4);
        EXPECT_EQ(reparsed[i].name, designs[i].name);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CatalogFuzzSweep, ::testing::Range(0, 6));

} // namespace
} // namespace mindful
