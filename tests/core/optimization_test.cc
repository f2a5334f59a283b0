/**
 * @file
 * Combined-optimization study tests (Fig. 12).
 */

#include <gtest/gtest.h>

#include "accel/simulator.hh"
#include "base/random.hh"
#include "core/dnn_cost.hh"
#include "core/experiments.hh"
#include "core/optimization.hh"
#include "core/soc_catalog.hh"

namespace mindful::core {
namespace {

using experiments::SpeechModel;
using experiments::speechModelBuilder;

OptimizationStudy
makeStudy(int soc_id)
{
    return OptimizationStudy(ImplantModel(socById(soc_id)),
                             speechModelBuilder(SpeechModel::Mlp));
}

TEST(OptimizationStepsTest, LabelsMatchFig12Bars)
{
    EXPECT_EQ(OptimizationSteps::chDr().label(), "ChDr");
    EXPECT_EQ(OptimizationSteps::laChDr().label(), "La+ChDr");
    EXPECT_EQ(OptimizationSteps::laChDrTech().label(), "La+ChDr+Tech");
    EXPECT_EQ(OptimizationSteps::laChDrTechDense().label(),
              "La+ChDr+Tech+Dense");
}

TEST(OptimizationTest, ChDrFindsLargestFeasibleDropout)
{
    auto study = makeStudy(3); // Neuralink: tight budget
    auto outcome = study.evaluate(2048, OptimizationSteps::chDr());
    ASSERT_TRUE(outcome.feasible);
    EXPECT_GT(outcome.activeChannels, 0u);
    EXPECT_LT(outcome.activeChannels, 2048u);
    EXPECT_GT(outcome.modelSizeFraction, 0.0);
    EXPECT_LT(outcome.modelSizeFraction, 1.0);
    EXPECT_TRUE(outcome.point.feasible);
}

TEST(OptimizationTest, ModelSizeFractionShrinksWithChannelCount)
{
    // Fig. 12 trend: 2048 -> 4096 -> 8192 forces ever-smaller models
    // (paper averages: 32% -> 6% -> 2%).
    auto study = makeStudy(3);
    double previous = 1.1;
    for (std::uint64_t n : {2048u, 4096u, 8192u}) {
        auto outcome = study.evaluate(n, OptimizationSteps::chDr());
        ASSERT_TRUE(outcome.feasible) << "n=" << n;
        EXPECT_LT(outcome.modelSizeFraction, previous) << "n=" << n;
        previous = outcome.modelSizeFraction;
    }
}

TEST(OptimizationTest, LayerReductionAdmitsLargerModels)
{
    // Fig. 12: adding La increases the feasible model size.
    for (int id : {1, 3, 6}) {
        auto study = makeStudy(id);
        for (std::uint64_t n : {4096u, 8192u}) {
            auto chdr = study.evaluate(n, OptimizationSteps::chDr());
            auto la = study.evaluate(n, OptimizationSteps::laChDr());
            if (!chdr.feasible)
                continue;
            ASSERT_TRUE(la.feasible);
            EXPECT_GE(la.modelSizeFraction,
                      chdr.modelSizeFraction * 0.999)
                << "SoC " << id << " n=" << n;
        }
    }
}

TEST(OptimizationTest, TechnologyScalingIsTheBigLever)
{
    // Fig. 12: Tech multiplies the feasible model size severalfold.
    auto study = makeStudy(3);
    auto la = study.evaluate(4096, OptimizationSteps::laChDr());
    auto tech = study.evaluate(4096, OptimizationSteps::laChDrTech());
    ASSERT_TRUE(la.feasible);
    ASSERT_TRUE(tech.feasible);
    EXPECT_GT(tech.modelSizeFraction, 2.0 * la.modelSizeFraction);
}

TEST(OptimizationTest, DensityCutsTheBudgetAndTheModel)
{
    // Fig. 12: Dense lowers Pbudget and with it the feasible model.
    auto study = makeStudy(6);
    auto tech = study.evaluate(4096, OptimizationSteps::laChDrTech());
    auto dense =
        study.evaluate(4096, OptimizationSteps::laChDrTechDense());
    ASSERT_TRUE(tech.feasible);
    if (dense.feasible) {
        EXPECT_LT(dense.modelSizeFraction, tech.modelSizeFraction);
        EXPECT_LT(dense.point.powerBudget.inWatts(),
                  tech.point.powerBudget.inWatts());
    }
}

TEST(OptimizationTest, DenseCanMakeLargeScalesInfeasible)
{
    // With the budget halved on the sensing side, very large NIs can
    // become outright infeasible even with maximal dropout — the
    // Fig. 12 "2% or nothing" regime at 8192 channels.
    bool any_infeasible = false;
    for (int id : {1, 2, 3, 4, 5, 6, 7, 8}) {
        auto outcome = makeStudy(id).evaluate(
            8192, OptimizationSteps::laChDrTechDense());
        any_infeasible |= !outcome.feasible;
    }
    EXPECT_TRUE(any_infeasible);
}

TEST(OptimizationTest, OutcomeRecordsTheWinningDesignPoint)
{
    auto study = makeStudy(1);
    auto outcome = study.evaluate(2048, OptimizationSteps::laChDrTech());
    ASSERT_TRUE(outcome.feasible);
    EXPECT_EQ(outcome.point.channels, 2048u);
    EXPECT_EQ(outcome.point.activeChannels, outcome.activeChannels);
    EXPECT_LE(outcome.point.budgetUtilization, 1.0);
}

TEST(OptimizationTest, Fig12SweepHasFullShape)
{
    auto sweep = experiments::optimizationSweep(1);
    ASSERT_EQ(sweep.size(), 3u); // n = 2048, 4096, 8192
    for (const auto &series : sweep) {
        ASSERT_EQ(series.outcomes.size(), 4u); // four bar groups
        EXPECT_EQ(series.socId, 1);
    }
    EXPECT_EQ(sweep[0].channels, 2048u);
    EXPECT_EQ(sweep[2].channels, 8192u);
}

/**
 * Fig. 12's ChDr bar at SoC 3, n = 8192: the decoder rebuilt at the
 * study's n' runs on the PE simulator, its output is the model's own
 * forward, and it executes exactly the census the study sized it by.
 */
void
expectChDrDecoderExecutesAtItsCensus(SpeechModel model)
{
    const auto sweep = experiments::optimizationSweep(3, model);
    ASSERT_EQ(sweep.back().channels, 8192u);
    const OptimizationOutcome &chdr = sweep.back().outcomes.front();
    ASSERT_TRUE(chdr.feasible);
    ASSERT_LT(chdr.activeChannels, chdr.channels);

    const ModelBuilder build = speechModelBuilder(model);
    dnn::Network net = build(chdr.activeChannels);
    Rng rng(41);
    net.initializeWeights(rng);
    dnn::Tensor input(net.inputShape());
    for (std::size_t i = 0; i < input.size(); ++i)
        input[i] = static_cast<float>(rng.uniform(-1.0, 1.0));

    const accel::SimulationResult result =
        accel::AcceleratorSimulator({}).run(net, input);
    const dnn::Tensor reference = net.forward(input);
    ASSERT_EQ(result.output.shape(), reference.shape());
    for (std::size_t i = 0; i < reference.size(); ++i)
        ASSERT_EQ(result.output[i], reference[i]) << "element " << i;

    std::uint64_t census_macs = 0;
    for (const dnn::MacCensus &layer : dnnFacts(net).census)
        census_macs += layer.macOp * layer.macSeq;
    EXPECT_EQ(result.macsExecuted, census_macs);

    EXPECT_EQ(static_cast<double>(net.totalWeights()) /
                  static_cast<double>(build(chdr.channels).totalWeights()),
              chdr.modelSizeFraction);
}

TEST(OptimizationTest, ChDrDecoderExecutesAtItsCensus)
{
    // MLP: n' = 459 (0.3% model size). DN-CNN: n' = 159 (0.26%); its
    // sweep also probes n' below 4, where the pools shrink to the map.
    {
        SCOPED_TRACE("MLP");
        expectChDrDecoderExecutesAtItsCensus(SpeechModel::Mlp);
    }
    {
        SCOPED_TRACE("DN-CNN");
        expectChDrDecoderExecutesAtItsCensus(SpeechModel::DnCnn);
    }
}

} // namespace
} // namespace mindful::core
