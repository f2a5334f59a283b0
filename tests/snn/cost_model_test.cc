/**
 * @file
 * SNN cost-model tests, including the Hueber-style comparison the
 * paper cites: for sparse activity, the event-driven SNN beats the
 * dense MAC lower bound on the same topology.
 */

#include <gtest/gtest.h>

#include "accel/lower_bound.hh"
#include "snn/cost_model.hh"

namespace mindful::snn {
namespace {

TEST(SnnCostModelTest, PowerLaw)
{
    SnnCostParams params;
    params.energyPerSynOp = Energy::picojoules(0.05);
    params.leakPerNeuron = Power::nanowatts(10.0);
    SnnCostModel model(params);

    // 1e9 synops/s * 0.05 pJ = 50 uW, plus 100 neurons * 10 nW = 1 uW.
    Power p = model.power(1e9, 100);
    EXPECT_NEAR(p.inMicrowatts(), 51.0, 1e-9);
}

TEST(SnnCostModelTest, ZeroActivityLeavesOnlyLeak)
{
    SnnCostModel model;
    Power p = model.power(0.0, 1000);
    EXPECT_NEAR(p.inMicrowatts(),
                model.params().leakPerNeuron.inMicrowatts() * 1000.0,
                1e-12);
}

TEST(SnnCostModelTest, ExpectedCensusShape)
{
    auto census = SnnCostModel::expectedCensus(128, {64, 32}, 0.1, 25);
    ASSERT_EQ(census.size(), 2u);
    // Layer 1: 64 neurons, ~13 active inputs x 25 steps.
    EXPECT_EQ(census[0].macOp, 64u);
    EXPECT_EQ(census[0].macSeq, 13u * 25u);
    // Layer 2: 32 neurons over the 64-neuron layer: ~6 active.
    EXPECT_EQ(census[1].macOp, 32u);
    EXPECT_EQ(census[1].macSeq, 6u * 25u);
}

TEST(SnnCostModelTest, CensusScalesWithActivity)
{
    auto sparse = SnnCostModel::expectedCensus(256, {128}, 0.05, 10);
    auto dense = SnnCostModel::expectedCensus(256, {128}, 1.0, 10);
    EXPECT_LT(dnn::totalMacs(sparse), dnn::totalMacs(dense) / 10);
    // Full activity degenerates to the dense layer cost per window.
    EXPECT_EQ(dnn::totalMacs(dense), 256u * 128u * 10u);
}

TEST(SnnCostModelTest, SparseSnnBeatsDenseMacLowerBound)
{
    // The comparison behind the paper's Sec. 7 SNN interest: at 5%
    // activity the event-driven accelerator needs far less power
    // than the dense Eq. 13 bound on the same topology and deadline.
    const std::size_t inputs = 1024;
    const std::vector<std::size_t> layers{512, 128, 40};
    const Time deadline = Time::milliseconds(0.5);

    // Dense bound: every weight touched once per inference.
    std::vector<dnn::MacCensus> dense;
    std::size_t fan_in = inputs;
    for (std::size_t n : layers) {
        dense.push_back({n, fan_in});
        fan_in = n;
    }
    accel::LowerBoundSolver solver(accel::nangate45());
    auto bound = solver.solveBest(dense, deadline);
    ASSERT_TRUE(bound.feasible);

    // SNN: 5% activity, one window of 10 steps per deadline.
    auto census = SnnCostModel::expectedCensus(inputs, layers, 0.05, 10);
    double synops_per_inference =
        static_cast<double>(dnn::totalMacs(census));
    double synops_per_second =
        synops_per_inference / deadline.inSeconds();
    std::size_t neurons = 512 + 128 + 40;
    SnnCostModel model;
    Power snn_power = model.power(synops_per_second, neurons);

    EXPECT_LT(snn_power.inWatts(), bound.power.inWatts() / 3.0);
}

TEST(SnnCostModelDeathTest, InvalidInputsPanic)
{
    SnnCostModel model;
    EXPECT_DEATH(model.power(-1.0, 10), "non-negative");
    EXPECT_DEATH(SnnCostModel::expectedCensus(0, {4}, 0.1, 1),
                 "at least one input");
    EXPECT_DEATH(SnnCostModel::expectedCensus(4, {4}, 1.5, 1),
                 "activity");
}

} // namespace
} // namespace mindful::snn
