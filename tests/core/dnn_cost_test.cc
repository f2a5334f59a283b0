/**
 * @file
 * DNN cost memo tests: a memo-backed sweep returns exactly what the
 * memo-less models return, and sizes each distinct active-channel
 * count once.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/comp_centric.hh"
#include "core/dnn_cost.hh"
#include "core/experiments.hh"
#include "core/optimization.hh"
#include "core/partition.hh"
#include "core/soc_catalog.hh"

namespace mindful::core {
namespace {

using experiments::SpeechModel;
using experiments::speechModelBuilder;

void
expectSamePoint(const CompCentricPoint &a, const CompCentricPoint &b)
{
    EXPECT_EQ(a.channels, b.channels);
    EXPECT_EQ(a.activeChannels, b.activeChannels);
    EXPECT_EQ(a.onImplantLayers, b.onImplantLayers);
    EXPECT_EQ(a.bound.feasible, b.bound.feasible);
    EXPECT_EQ(a.bound.discipline, b.bound.discipline);
    EXPECT_EQ(a.bound.macUnits, b.bound.macUnits);
    EXPECT_EQ(a.bound.power, b.bound.power);
    EXPECT_EQ(a.bound.latency, b.bound.latency);
    EXPECT_EQ(a.bound.perLayerUnits, b.bound.perLayerUnits);
    EXPECT_EQ(a.sensingPower, b.sensingPower);
    EXPECT_EQ(a.digitalPower, b.digitalPower);
    EXPECT_EQ(a.computePower, b.computePower);
    EXPECT_EQ(a.commPower, b.commPower);
    EXPECT_EQ(a.totalPower, b.totalPower);
    EXPECT_EQ(a.powerBudget, b.powerBudget);
    EXPECT_EQ(a.budgetUtilization, b.budgetUtilization);
    EXPECT_EQ(a.transmittedElements, b.transmittedElements);
    EXPECT_EQ(a.feasible, b.feasible);
}

TEST(DnnCostMemoTest, MemoBackedPointsMatchMemoLessPoints)
{
    // A 1 us deadline the decoders' first layers cannot meet; it also
    // shrinks the uplink's cut limit below every layer's output, so no
    // cut is viable.
    CompCentricConfig rt_infeasible;
    rt_infeasible.applicationRate = Frequency::megahertz(1.0);
    CompCentricConfig tech;
    tech.mac = accel::scaled12nm();

    for (SpeechModel family : {SpeechModel::Mlp, SpeechModel::DnCnn}) {
        // One memo across SoCs, MAC nodes and deadlines, as a sweep
        // that mixed them would share it.
        DnnCostMemo memo(speechModelBuilder(family));
        bool saw_rt_infeasible = false;
        bool saw_no_cut = false;
        for (int id : {1, 5}) {
            for (const CompCentricConfig &config :
                 {CompCentricConfig{}, tech, rt_infeasible}) {
                const ImplantModel implant(socById(id));
                const CompCentricModel fresh(
                    implant, speechModelBuilder(family), config);
                const CompCentricModel shared(implant, memo, config);
                for (std::uint64_t n : {256u, 1024u, 3072u}) {
                    for (std::uint64_t active : {n, n / 2}) {
                        for (bool partitioned : {false, true}) {
                            SCOPED_TRACE(experiments::toString(family) +
                                         " SoC " + std::to_string(id) +
                                         " n=" + std::to_string(n) +
                                         " n'=" + std::to_string(active) +
                                         (partitioned ? " cut" : " full"));
                            auto a =
                                fresh.evaluate(n, active, partitioned);
                            auto b =
                                shared.evaluate(n, active, partitioned);
                            expectSamePoint(a, b);
                            saw_rt_infeasible |= !a.bound.feasible;
                            saw_no_cut |=
                                !earliestViableCut(
                                     memo.facts(active),
                                     shared.partitionCutLimit())
                                     .viable;
                        }
                    }
                }
            }
        }
        EXPECT_TRUE(saw_rt_infeasible) << experiments::toString(family);
        EXPECT_TRUE(saw_no_cut) << experiments::toString(family);
    }
}

TEST(DnnCostMemoTest, SharedMemoLeavesOptimizationOutcomesUnchanged)
{
    // The study's memo-backed ladders against the same ladders built
    // from memo-less models: dropout search, winning point and model
    // size fraction must agree exactly.
    const ModelBuilder builder = speechModelBuilder(SpeechModel::Mlp);
    for (int id : {1, 3, 5}) {
        const ImplantModel implant(socById(id));
        OptimizationStudy study(implant, builder);
        for (std::uint64_t n : experiments::fig12Channels()) {
            for (const OptimizationSteps &steps :
                 {OptimizationSteps::chDr(), OptimizationSteps::laChDr(),
                  OptimizationSteps::laChDrTech(),
                  OptimizationSteps::laChDrTechDense()}) {
                SCOPED_TRACE("SoC " + std::to_string(id) + " n=" +
                             std::to_string(n) + " " + steps.label());
                CompCentricConfig config;
                if (steps.technologyScaling)
                    config.mac = accel::scaled12nm();
                if (steps.channelDensity)
                    config.sensingAreaScale = 0.5;
                const CompCentricModel fresh(implant, builder, config);
                const std::uint64_t active =
                    fresh.maxActiveChannels(n, steps.layerReduction);

                auto outcome = study.evaluate(n, steps);
                EXPECT_EQ(outcome.channels, n);
                EXPECT_EQ(outcome.steps.label(), steps.label());
                EXPECT_EQ(outcome.activeChannels, active);
                EXPECT_EQ(outcome.feasible, active > 0);
                if (active == 0)
                    continue;
                expectSamePoint(
                    outcome.point,
                    fresh.evaluate(n, active, steps.layerReduction));
                EXPECT_EQ(outcome.modelSizeFraction,
                          static_cast<double>(
                              builder(active).totalWeights()) /
                              static_cast<double>(
                                  builder(n).totalWeights()));
            }
        }
    }
}

TEST(DnnCostMemoTest, PartitionScansBuildEachActiveCountOnce)
{
    for (SpeechModel family : {SpeechModel::Mlp, SpeechModel::DnCnn}) {
        std::map<std::uint64_t, int> builds;
        DnnCostMemo memo([&builds, inner = speechModelBuilder(family)](
                             std::uint64_t channels) {
            ++builds[channels];
            return inner(channels);
        });
        const auto expected = experiments::partitionGains(family);
        std::size_t i = 0;
        for (const auto &soc : wirelessSocs()) {
            CompCentricModel comp{ImplantModel(soc), memo};
            EXPECT_EQ(comp.maxChannels(false), expected[i].maxChannelsFull);
            EXPECT_EQ(comp.maxChannels(true),
                      expected[i].maxChannelsPartitioned);
            ++i;
        }
        EXPECT_FALSE(builds.empty());
        for (const auto &[channels, count] : builds)
            EXPECT_EQ(count, 1) << experiments::toString(family)
                                << " n'=" << channels;
    }
}

} // namespace
} // namespace mindful::core
