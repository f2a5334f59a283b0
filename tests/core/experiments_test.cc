/**
 * @file
 * Experiment-runner tests: every table/figure generator produces
 * complete, well-formed output (bench/export_figures prints and writes
 * these), and the claims EXPERIMENTS.md makes of them hold.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "core/experiments.hh"
#include "core/soc_catalog.hh"

namespace mindful::core::experiments {
namespace {

std::string
render(const Table &table)
{
    std::ostringstream os;
    table.print(os);
    return os.str();
}

TEST(ExperimentsTest, Table1HasElevenRows)
{
    Table table = table1();
    EXPECT_EQ(table.rows(), 11u);
    std::string out = render(table);
    for (const char *name : {"BISC", "Neuralink", "WIMAGINE", "HALO*",
                             "Neuropixels", "Jang", "Pollman"})
        EXPECT_NE(out.find(name), std::string::npos) << name;
}

TEST(ExperimentsTest, Fig4AllRowsSafe)
{
    auto rows = fig4Rows();
    ASSERT_EQ(rows.size(), 11u);
    for (const auto &row : rows) {
        EXPECT_TRUE(row.safe) << row.point.name;
        EXPECT_EQ(row.point.channels, 1024u);
    }
    EXPECT_EQ(fig4Table().rows(), 11u);
}

TEST(ExperimentsTest, Fig5SweepCoversAllWirelessSocs)
{
    auto series = commCentricSweep(CommScalingStrategy::HighMargin,
                                   fig5Channels());
    ASSERT_EQ(series.size(), 8u);
    for (const auto &entry : series) {
        EXPECT_EQ(entry.points.size(), fig5Channels().size());
        EXPECT_EQ(entry.strategy, CommScalingStrategy::HighMargin);
    }
    EXPECT_EQ(fig5Table(CommScalingStrategy::Naive).rows(), 8u);
    EXPECT_EQ(fig5Table(CommScalingStrategy::HighMargin).rows(), 8u);
}

// EXPERIMENTS.md Fig. 5: under high-margin scaling every SoC crosses
// its power budget, at the stated channel count. On a 64-channel grid
// the crossing lies in (last safe count, first over-budget count];
// "~x.yk" holds when that cell overlaps [x.y k - 50, x.y k + 50), and
// "<2k" when the first over-budget count is below 2000.
TEST(ExperimentsTest, Fig5HighMarginCrossoversHold)
{
    std::vector<std::uint64_t> grid;
    for (std::uint64_t n = 64; n <= 16384; n += 64)
        grid.push_back(n);
    const std::map<std::string, double> stated{
        {"BISC", 4300.0},   {"Gilhotra", 2000.0}, {"Shen", 7000.0},
        {"Muller", 6500.0}, {"Yang", 2600.0},     {"WIMAGINE", 5900.0},
        {"HALO*", 1500.0}};
    auto series = commCentricSweep(CommScalingStrategy::HighMargin, grid);
    ASSERT_EQ(series.size(), 8u);
    for (const auto &entry : series) {
        auto over = std::find_if(
            entry.points.begin(), entry.points.end(),
            [](const CommCentricPoint &point) { return !point.safe(); });
        ASSERT_NE(over, entry.points.end()) << entry.name;
        const double hi = static_cast<double>(over->channels);
        const double lo =
            over == entry.points.begin()
                ? 0.0
                : static_cast<double>(std::prev(over)->channels);
        if (entry.name == "Neuralink") {
            EXPECT_LT(hi, 2000.0);
            continue;
        }
        auto it = stated.find(entry.name);
        ASSERT_NE(it, stated.end()) << entry.name;
        EXPECT_TRUE(lo < it->second + 50.0 && hi >= it->second - 50.0)
            << entry.name << " crosses in (" << lo << ", " << hi
            << "], stated ~" << it->second;
    }
}

// EXPERIMENTS.md Fig. 7: the fleet-average QAM reach at 20% and 100%
// efficiency.
TEST(ExperimentsTest, Fig7QamReachClaimsHold)
{
    const QamSummary at20 = qamSummary(0.20);
    EXPECT_EQ(at20.averageMaxChannels, 1968.0);
    EXPECT_NEAR(at20.averageGain, 1.92, 0.005);
    const QamSummary at100 = qamSummary(1.0);
    EXPECT_EQ(at100.averageMaxChannels, 3944.0);
    EXPECT_NEAR(at100.averageGain, 3.85, 0.005);
}

TEST(ExperimentsTest, Fig6TableShape)
{
    Table table = fig6Table(CommScalingStrategy::HighMargin);
    EXPECT_EQ(table.rows(), 8u);
    EXPECT_EQ(table.columns(), 2u + fig6Channels().size());
}

// EXPERIMENTS.md Fig. 6: under high-margin scaling every SoC's
// sensing-area fraction passes 0.85 by 64k channels.
TEST(ExperimentsTest, Fig6HighMarginClaimHolds)
{
    const auto series =
        commCentricSweep(CommScalingStrategy::HighMargin, {65536});
    ASSERT_EQ(series.size(), 8u);
    for (const auto &entry : series)
        EXPECT_GT(entry.points.front().sensingAreaFraction, 0.85)
            << entry.name;
}

TEST(ExperimentsTest, Fig7SweepAndTable)
{
    auto channels = fig7Channels();
    EXPECT_EQ(channels.front(), 1024u);
    EXPECT_EQ(channels.back(), 6144u);
    auto series = qamSweep(channels, {});
    ASSERT_EQ(series.size(), 8u);
    EXPECT_EQ(series[0].points.size(), channels.size());
    EXPECT_EQ(fig7Table().rows(), channels.size());
}

TEST(ExperimentsTest, Fig9TwelveDesigns)
{
    auto rows = fig9Rows();
    ASSERT_EQ(rows.size(), 12u);
    EXPECT_EQ(rows.front().design, 1);
    EXPECT_EQ(rows.back().design, 12);
    EXPECT_EQ(fig9Table().rows(), 12u);
}

// EXPERIMENTS.md Fig. 9: the PE share stays at 22.6-29.1% for
// designs 1-5, rises 36.6% -> 79.9% over 6-9 and 86.4% -> 94.0% over
// 10-12.
TEST(ExperimentsTest, Fig9PeShareClaimsHold)
{
    const auto rows = fig9Rows();
    ASSERT_EQ(rows.size(), 12u);
    auto share = [&](int design) {
        return rows[design - 1].estimate.peShare;
    };
    for (int design = 1; design <= 5; ++design) {
        EXPECT_GE(share(design), 0.2255) << design;
        EXPECT_LT(share(design), 0.2915) << design;
    }
    for (int design = 6; design < 12; ++design)
        EXPECT_LT(share(design), share(design + 1)) << design;
    EXPECT_NEAR(share(6), 0.366, 0.0005);
    EXPECT_NEAR(share(9), 0.799, 0.0005);
    EXPECT_NEAR(share(10), 0.864, 0.0005);
    EXPECT_NEAR(share(12), 0.940, 0.0005);
}

TEST(ExperimentsTest, Fig10SweepBothModels)
{
    for (auto model : {SpeechModel::Mlp, SpeechModel::DnCnn}) {
        auto series = dnnPowerSweep(model, {1024, 2048});
        ASSERT_EQ(series.size(), 8u);
        for (const auto &entry : series) {
            EXPECT_EQ(entry.points.size(), 2u);
            EXPECT_EQ(entry.model, model);
        }
    }
    EXPECT_EQ(fig10Table(SpeechModel::Mlp).rows(), 8u);
}

// EXPERIMENTS.md Fig. 10: the 1024-channel feasibility sets and the
// MLP max-channel frontier of every feasible SoC.
TEST(ExperimentsTest, Fig10ClaimsHold)
{
    auto feasibleAt1024 = [](SpeechModel model) {
        std::set<int> feasible;
        for (const auto &entry : dnnPowerSweep(model, {1024}))
            if (entry.points.front().feasible)
                feasible.insert(entry.socId);
        return feasible;
    };
    EXPECT_EQ(feasibleAt1024(SpeechModel::Mlp),
              (std::set<int>{1, 2, 6, 7, 8})); // infeasible on {3, 4, 5}
    EXPECT_EQ(feasibleAt1024(SpeechModel::DnCnn), (std::set<int>{1, 2, 7}));

    const std::map<int, std::uint64_t> frontier{
        {1, 2624}, {2, 2592}, {6, 1600}, {7, 2720}, {8, 1216}};
    for (const auto &entry : dnnPowerSweep(SpeechModel::Mlp, {1024})) {
        auto it = frontier.find(entry.socId);
        if (it != frontier.end()) {
            EXPECT_EQ(entry.maxChannels, it->second) << entry.name;
        }
    }
}

// EXPERIMENTS.md Fig. 11: partitioning never helps the DN-CNN, SoC 5
// gets no cut, and the MLP gains most on SoCs 1 and 2.
TEST(ExperimentsTest, Fig11ClaimsHold)
{
    for (const auto &row : partitionGains(SpeechModel::DnCnn)) {
        EXPECT_EQ(row.maxChannelsPartitioned, row.maxChannelsFull)
            << row.name;
        EXPECT_EQ(row.gain, 1.0) << row.name;
    }

    auto mlp = partitionGains(SpeechModel::Mlp);
    ASSERT_EQ(mlp.size(), 8u);
    for (const auto &row : mlp) {
        if (row.socId == 5) {
            EXPECT_EQ(row.maxChannelsPartitioned, row.maxChannelsFull);
            EXPECT_EQ(row.gain, 1.0);
        }
    }
    // SoC 5's uplink carries only 512-value cuts, so the MLP's one
    // viable cut sits after its final dense layer and ships the same
    // 40 labels as the full model: the split buys nothing.
    CompCentricModel soc5(ImplantModel(socById(5)),
                          speechModelBuilder(SpeechModel::Mlp));
    for (std::uint64_t n : {608u, 1024u}) {
        auto full = soc5.evaluate(n, false);
        auto cut = soc5.evaluate(n, true);
        EXPECT_EQ(cut.onImplantLayers + 1, full.onImplantLayers) << n;
        EXPECT_EQ(cut.transmittedElements, full.transmittedElements) << n;
        EXPECT_EQ(cut.totalPower, full.totalPower) << n;
    }

    std::sort(mlp.begin(), mlp.end(), [](const auto &a, const auto &b) {
        return a.gain > b.gain;
    });
    EXPECT_EQ((std::set<int>{mlp[0].socId, mlp[1].socId}),
              (std::set<int>{1, 2}));
    EXPECT_GT(mlp[1].gain, mlp[2].gain);
}

TEST(ExperimentsTest, Fig11RowsPerSocAndModel)
{
    auto rows = partitionGains(SpeechModel::Mlp);
    ASSERT_EQ(rows.size(), 8u);
    Table table = fig11Table();
    EXPECT_EQ(table.rows(), 16u); // 8 SoCs x 2 models
}

TEST(ExperimentsTest, Fig12TablePerSoc)
{
    Table table = fig12Table(1);
    EXPECT_EQ(table.rows(), fig12Channels().size());
    EXPECT_EQ(table.columns(), 5u);
}

// EXPERIMENTS.md Fig. 12: the SoC 3 table, feasible model size as a
// fraction of the unoptimized model (negative = infeasible).
TEST(ExperimentsTest, Fig12Soc3ClaimsHold)
{
    const std::map<std::uint64_t, std::vector<double>> expected{
        {2048, {0.111, 0.119, 0.515, 0.095}},
        {4096, {0.022, 0.023, 0.091, -1.0}},
        {8192, {0.003, 0.003, 0.012, -1.0}},
    };
    const auto series = optimizationSweep(3);
    ASSERT_EQ(series.size(), expected.size());
    for (const auto &entry : series) {
        const std::vector<double> &want = expected.at(entry.channels);
        ASSERT_EQ(entry.outcomes.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            const OptimizationOutcome &got = entry.outcomes[i];
            EXPECT_EQ(got.feasible, want[i] >= 0.0)
                << entry.channels << " bar " << i;
            if (got.feasible) {
                EXPECT_NEAR(got.modelSizeFraction, want[i], 0.0005)
                    << entry.channels << " bar " << i;
            }
        }
    }
}

// EXPERIMENTS.md extensions, decoder workloads: per channel doubling
// from 1024 to 8192 the Kalman iteration's MACs grow 7.8-8.0x (its
// O(n^3) covariance update) against 4.0-4.2x for the MLP.
TEST(ExperimentsTest, KalmanMacsOutgrowTheMlp)
{
    const auto rows = workloadCostRows();
    ASSERT_EQ(rows.size(), 4u);
    EXPECT_EQ(rows.front().channels, 1024u);
    for (std::size_t i = 1; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].channels, 2 * rows[i - 1].channels);
        const double kalman = static_cast<double>(rows[i].kalmanMacs) /
                              static_cast<double>(rows[i - 1].kalmanMacs);
        const double mlp = static_cast<double>(rows[i].mlpMacs) /
                           static_cast<double>(rows[i - 1].mlpMacs);
        EXPECT_GE(kalman, 7.8) << rows[i].channels;
        EXPECT_LE(kalman, 8.0) << rows[i].channels;
        EXPECT_GE(mlp, 4.0) << rows[i].channels;
        EXPECT_LE(mlp, 4.2) << rows[i].channels;
    }
}

// EXPERIMENTS.md extensions, power delivery: at 4096 channels the
// spike-event uplink is 15.48 Mbps on every SoC against a raw uplink
// of 41-1228.8 Mbps, and event streaming pushes all SoCs but
// Neuralink past the 65536-channel search limit.
TEST(ExperimentsTest, EventStreamingClaimsHold)
{
    const auto rows = eventStreamingRows();
    ASSERT_EQ(rows.size(), 8u);
    double raw_min = rows.front().rawUplink.inMegabitsPerSecond();
    double raw_max = raw_min;
    for (const auto &row : rows) {
        EXPECT_NEAR(row.eventUplink.inMegabitsPerSecond(), 15.48, 0.005)
            << row.name;
        raw_min = std::min(raw_min, row.rawUplink.inMegabitsPerSecond());
        raw_max = std::max(raw_max, row.rawUplink.inMegabitsPerSecond());
        EXPECT_GT(row.eventMaxChannels, row.rawMaxChannels) << row.name;
        EXPECT_EQ(row.eventMaxChannels >= 65536, row.name != "Neuralink")
            << row.name;
    }
    EXPECT_NEAR(raw_min, 41.0, 0.05);
    EXPECT_NEAR(raw_max, 1228.8, 0.05);
}

// EXPERIMENTS.md extensions, closed loop: the loop closes with a 21x
// margin against the reaction deadline and the power budget binds on
// every SoC; the stimulator lowers the open-loop frontier by at most
// ~21% (Shen: 608 -> 480).
TEST(ExperimentsTest, ClosedLoopClaimsHold)
{
    const auto rows = closedLoopRows();
    ASSERT_EQ(rows.size(), 8u);
    for (const auto &row : rows) {
        EXPECT_NEAR(row.deadlineMargin, 21.0, 0.5) << row.name;
        EXPECT_EQ(row.binding, "power budget") << row.name;
        EXPECT_LE(row.closedLoopMaxChannels, row.openLoopMaxChannels)
            << row.name;
        EXPECT_GE(static_cast<double>(row.closedLoopMaxChannels),
                  0.78 * static_cast<double>(row.openLoopMaxChannels))
            << row.name;
        if (row.name == "Shen") {
            EXPECT_EQ(row.openLoopMaxChannels, 608u);
            EXPECT_EQ(row.closedLoopMaxChannels, 480u);
        }
    }
}

// EXPERIMENTS.md extensions, sensitivity: H1 fails only under +20%
// sensing area, H3 reads FF...FFF everywhere, and the H2 QAM gains
// stay >= 1.6x / >= 3.6x except under receiver NF +3 dB (1.03x /
// 2.79x).
TEST(ExperimentsTest, SensitivityClaimsHold)
{
    const auto rows = sensitivityRows();
    ASSERT_EQ(rows.size(), 6u);
    EXPECT_EQ(rows.front().scenario, "baseline");
    for (const auto &row : rows) {
        EXPECT_EQ(row.h1AlwaysCrosses,
                  row.scenario != "sensing area share +20%")
            << row.scenario;
        EXPECT_EQ(row.h3Pattern, "FF...FFF") << row.scenario;
        if (row.scenario == "receiver NF +3 dB") {
            EXPECT_NEAR(row.h2GainAt20, 1.03, 0.005);
            EXPECT_NEAR(row.h2GainAt100, 2.79, 0.005);
        } else {
            EXPECT_GE(row.h2GainAt20, 1.6) << row.scenario;
            EXPECT_GE(row.h2GainAt100, 3.6) << row.scenario;
        }
    }
}

TEST(ExperimentsTest, ModelNamesRender)
{
    EXPECT_EQ(toString(SpeechModel::Mlp), "MLP");
    EXPECT_EQ(toString(SpeechModel::DnCnn), "DN-CNN");
}

TEST(ExperimentsTest, BuilderProducesScaledModels)
{
    auto builder = speechModelBuilder(SpeechModel::Mlp);
    EXPECT_GT(builder(2048).totalMacs(), builder(1024).totalMacs());
}

TEST(ExperimentsTest, CsvRenderingWorksForAllTables)
{
    for (const Table &table :
         {table1(), fig4Table(), fig7Table(), fig9Table()}) {
        std::ostringstream os;
        table.printCsv(os);
        EXPECT_GT(os.str().size(), 100u);
    }
}

} // namespace
} // namespace mindful::core::experiments
