/**
 * @file
 * The extension tables of core/experiments.hh: decoder workloads,
 * power delivery, the closed loop, and the robustness of the headline
 * conclusions to the calibrated constants.
 */

#include <algorithm>
#include <functional>

#include "accel/lower_bound.hh"
#include "comm/wpt.hh"
#include "core/closed_loop.hh"
#include "core/comp_centric.hh"
#include "core/event_centric.hh"
#include "core/experiments.hh"
#include "core/multi_implant.hh"
#include "core/soc_catalog.hh"
#include "core/workloads.hh"
#include "dnn/models.hh"
#include "snn/cost_model.hh"

namespace mindful::core::experiments {

namespace {

/** Upper end of the streaming-frontier searches. */
constexpr std::uint64_t kFrontierSearchLimit = 65536;

std::string
frontierCell(std::uint64_t channels)
{
    return channels >= kFrontierSearchLimit
               ? "> " + std::to_string(kFrontierSearchLimit)
               : std::to_string(channels);
}

} // namespace

// --- Decoder workloads (extension beyond Fig. 10) ---------------------

std::vector<WorkloadCostRow>
workloadCostRows()
{
    std::vector<WorkloadCostRow> rows;
    for (std::uint64_t n : {1024u, 2048u, 4096u, 8192u}) {
        rows.push_back({n, dnn::buildSpeechMlp(n).totalMacs(),
                        dnn::buildSpeechDnCnn(n).totalMacs(),
                        kalmanIterationMacs(n)});
    }
    return rows;
}

Table
workloadCostTable()
{
    Table table("Decoder workload cost vs channel count (MACs per "
                "inference / iteration)");
    table.setHeader({"n", "MLP", "DN-CNN", "Kalman"});
    for (const WorkloadCostRow &row : workloadCostRows()) {
        table.addRow({std::to_string(row.channels),
                      std::to_string(row.mlpMacs),
                      std::to_string(row.dnCnnMacs),
                      std::to_string(row.kalmanMacs)});
    }
    return table;
}

Table
snnPowerTable()
{
    Table table("Dense MAC lower bound vs event-driven SNN power "
                "(MLP-like topology, 2 kHz deadline)");
    table.setHeader({"n", "dense bound (mW)", "SNN @5% act. (mW)",
                     "SNN @20% act. (mW)"});
    accel::LowerBoundSolver solver(accel::nangate45());
    snn::SnnCostModel snn_model;
    const Time deadline = period(Frequency::kilohertz(2.0));
    for (std::uint64_t n : {1024u, 2048u, 4096u}) {
        const std::vector<std::size_t> layers{
            static_cast<std::size_t>(n / 2),
            static_cast<std::size_t>(n / 8), 40};
        std::vector<dnn::MacCensus> dense;
        std::size_t fan_in = static_cast<std::size_t>(n);
        std::size_t neurons = 0;
        for (std::size_t width : layers) {
            dense.push_back({width, fan_in});
            fan_in = width;
            neurons += width;
        }
        const auto bound = solver.solveBest(dense, deadline);
        std::vector<std::string> row{std::to_string(n)};
        row.push_back(bound.feasible
                          ? Table::formatNumber(
                                bound.power.inMilliwatts(), 2)
                          : "infeasible");
        for (double activity : {0.05, 0.20}) {
            const auto census = snn::SnnCostModel::expectedCensus(
                static_cast<std::size_t>(n), layers, activity, 10);
            const double synops_per_second =
                static_cast<double>(dnn::totalMacs(census)) /
                deadline.inSeconds();
            row.push_back(Table::formatNumber(
                snn_model.power(synops_per_second, neurons)
                    .inMilliwatts(),
                2));
        }
        table.addRow(row);
    }
    return table;
}

Table
workloadFrontierTable()
{
    Table table("Max feasible channels per SoC and workload");
    table.setHeader({"#", "SoC", "MLP", "DN-CNN", "Kalman"});
    for (const auto &soc : wirelessSocs()) {
        ImplantModel implant(soc);
        CompCentricModel mlp(implant,
                             speechModelBuilder(SpeechModel::Mlp));
        CompCentricModel cnn(implant,
                             speechModelBuilder(SpeechModel::DnCnn));

        // Kalman: one iteration per 50 ms feature bin.
        CompCentricConfig kalman_config;
        kalman_config.applicationRate = Frequency::hertz(20.0);
        CompCentricModel kalman(
            implant,
            [](std::uint64_t n) { return buildKalmanWorkload(n); },
            kalman_config);

        table.addRow({std::to_string(soc.id), soc.name,
                      std::to_string(mlp.maxChannels()),
                      std::to_string(cnn.maxChannels()),
                      std::to_string(kalman.maxChannels())});
    }
    return table;
}

// --- Power delivery and partitioning (paper Secs. 7-8) ----------------

Table
powerCeilingTable()
{
    const comm::WptLink wpt;
    Table table("Binding power ceiling under high-margin scaling "
                "(B = thermal budget, W = WPT delivery, - = both "
                "satisfied)");
    const std::vector<std::uint64_t> counts{1024, 2048, 4096, 8192};
    std::vector<std::string> header{"#", "SoC"};
    for (auto n : counts)
        header.push_back("n=" + std::to_string(n));
    header.push_back("WPT ceiling @1024 (mW)");
    table.setHeader(header);

    for (const auto &soc : wirelessSocs()) {
        CommCentricModel model(ImplantModel(soc),
                               CommScalingStrategy::HighMargin);
        std::vector<std::string> row{std::to_string(soc.id), soc.name};
        for (auto n : counts) {
            const auto point = model.project(n);
            std::string cell;
            if (!point.safe())
                cell += 'B';
            if (!wpt.canPower(point.totalArea, point.totalPower))
                cell += 'W';
            row.push_back(cell.empty() ? "-" : cell);
        }
        const auto at_1024 = model.project(1024);
        row.push_back(Table::formatNumber(
            wpt.maxDeliverablePower(at_1024.totalArea).inMilliwatts(), 1));
        table.addRow(row);
    }
    return table;
}

std::vector<EventStreamingRow>
eventStreamingRows()
{
    std::vector<EventStreamingRow> rows;
    for (const auto &soc : wirelessSocs()) {
        ImplantModel implant(soc);
        EventCentricModel events(implant);
        CommCentricModel raw(implant, CommScalingStrategy::HighMargin);
        const auto point = events.evaluate(4096);
        rows.push_back({soc.id, soc.name, point.dataRate,
                        point.rawDataRate,
                        events.maxSafeChannels(kFrontierSearchLimit),
                        raw.maxSafeChannels(kFrontierSearchLimit)});
    }
    return rows;
}

Table
eventStreamingTable()
{
    Table table("Spike-event streaming (on-implant detection): uplink "
                "and frontier vs raw streaming");
    table.setHeader({"#", "SoC", "event uplink @4096 (Mbps)",
                     "raw uplink @4096 (Mbps)", "event max n",
                     "raw (high-margin) max n"});
    for (const EventStreamingRow &row : eventStreamingRows()) {
        table.addRow(
            {std::to_string(row.socId), row.name,
             Table::formatNumber(row.eventUplink.inMegabitsPerSecond(), 2),
             Table::formatNumber(row.rawUplink.inMegabitsPerSecond(), 1),
             frontierCell(row.eventMaxChannels),
             frontierCell(row.rawMaxChannels)});
    }
    return table;
}

Table
multiImplantTable()
{
    Table table("Fewest implants for feasibility (high-margin raw "
                "streaming) and the replication cost");
    table.setHeader({"#", "SoC", "n", "min implants", "total power (mW)",
                     "sensing-area fraction"});
    for (const auto &soc : wirelessSocs()) {
        MultiImplantStudy study{ImplantModel(soc)};
        for (std::uint64_t n : {8192u, 16384u}) {
            const auto minimum = study.minimumImplants(n, 32);
            std::vector<std::string> row{std::to_string(soc.id), soc.name,
                                         std::to_string(n)};
            if (minimum == 0) {
                row.insert(row.end(), {"> 32", "-", "-"});
            } else {
                const auto point = study.evaluate(n, minimum);
                row.push_back(std::to_string(minimum));
                row.push_back(Table::formatNumber(
                    point.totalPower.inMilliwatts(), 1));
                row.push_back(
                    Table::formatNumber(point.sensingAreaFraction, 2));
            }
            table.addRow(row);
        }
    }
    return table;
}

// --- Closed loop (paper Secs. 2, 7) -----------------------------------

std::vector<ClosedLoopRow>
closedLoopRows()
{
    std::vector<ClosedLoopRow> rows;
    for (const auto &soc : wirelessSocs()) {
        ImplantModel implant(soc);
        CompCentricModel open(implant, speechModelBuilder(SpeechModel::Mlp));
        ClosedLoopStudy closed(implant,
                               speechModelBuilder(SpeechModel::Mlp));

        ClosedLoopRow row;
        row.socId = soc.id;
        row.name = soc.name;
        row.openLoopMaxChannels = open.maxChannels();
        row.closedLoopMaxChannels = closed.maxChannels();
        row.loopLatency = closed.evaluate(1024).loopLatency;
        row.deadlineMargin = closed.config().reactionDeadline.inSeconds() /
                             row.loopLatency.inSeconds();
        row.binding = "-";
        if (row.closedLoopMaxChannels > 0) {
            const auto beyond =
                closed.evaluate(row.closedLoopMaxChannels + 64);
            if (!beyond.withinBudget)
                row.binding = "power budget";
            else if (!beyond.meetsDeadline)
                row.binding = "reaction deadline";
            else
                row.binding = "RT sizing";
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

Table
closedLoopTable()
{
    Table table("Closed-loop vs open-loop frontier (MLP decoder, "
                "16-site stimulator)");
    table.setHeader({"#", "SoC", "open-loop max n", "closed-loop max n",
                     "loop latency @1024 (ms)", "deadline margin",
                     "binding constraint"});
    for (const ClosedLoopRow &row : closedLoopRows()) {
        table.addRow({std::to_string(row.socId), row.name,
                      std::to_string(row.openLoopMaxChannels),
                      std::to_string(row.closedLoopMaxChannels),
                      Table::formatNumber(
                          row.loopLatency.inMilliseconds(), 2),
                      Table::formatNumber(row.deadlineMargin, 0) + "x",
                      row.binding});
    }
    return table;
}

// --- Sensitivity to the calibrated constants --------------------------

namespace {

/** A perturbation applied to every SoC record before analysis. */
struct Scenario
{
    std::string name;
    std::function<void(SocDesign &)> perturb;
    QamStudyConfig qam;
};

std::vector<Scenario>
sensitivityScenarios()
{
    std::vector<Scenario> scenarios;
    scenarios.push_back({"baseline", [](SocDesign &) {}, {}});
    scenarios.push_back({"sensing power share +20%",
                         [](SocDesign &soc) {
                             soc.sensingPowerFraction = std::min(
                                 0.95, soc.sensingPowerFraction * 1.2);
                         },
                         {}});
    scenarios.push_back({"sensing power share -20%",
                         [](SocDesign &soc) {
                             soc.sensingPowerFraction *= 0.8;
                         },
                         {}});
    scenarios.push_back({"sensing area share +20%",
                         [](SocDesign &soc) {
                             soc.sensingAreaFraction = std::min(
                                 0.95, soc.sensingAreaFraction * 1.2);
                         },
                         {}});
    scenarios.push_back({"comm share of non-sensing 0.6",
                         [](SocDesign &soc) {
                             soc.commShareOfNonSensing = 0.6;
                         },
                         {}});
    Scenario noisy{"receiver NF +3 dB", [](SocDesign &) {}, {}};
    noisy.qam.link.noiseFigureDb += 3.0;
    scenarios.push_back(noisy);
    return scenarios;
}

bool
h1HighMarginAlwaysCrosses(const Scenario &scenario)
{
    for (SocDesign soc : wirelessSocs()) {
        scenario.perturb(soc);
        CommCentricModel model(ImplantModel(soc),
                               CommScalingStrategy::HighMargin);
        if (model.project(131072).safe())
            return false;
    }
    return true;
}

double
h2AverageGainAt(double eta, const Scenario &scenario)
{
    double total = 0.0;
    int count = 0;
    for (SocDesign soc : wirelessSocs()) {
        scenario.perturb(soc);
        QamStudy study(ImplantModel(soc), scenario.qam);
        total += static_cast<double>(study.maxChannels(eta));
        ++count;
    }
    return total / (static_cast<double>(count) * 1024.0);
}

std::string
h3FeasibilityPattern(const Scenario &scenario)
{
    std::string pattern;
    for (SocDesign soc : wirelessSocs()) {
        scenario.perturb(soc);
        CompCentricModel model(ImplantModel(soc),
                               speechModelBuilder(SpeechModel::Mlp));
        pattern += model.evaluate(1024).feasible ? 'F' : '.';
    }
    return pattern;
}

} // namespace

std::vector<SensitivityRow>
sensitivityRows()
{
    std::vector<SensitivityRow> rows;
    for (const Scenario &scenario : sensitivityScenarios()) {
        rows.push_back({scenario.name, h1HighMarginAlwaysCrosses(scenario),
                        h2AverageGainAt(0.20, scenario),
                        h2AverageGainAt(1.0, scenario),
                        h3FeasibilityPattern(scenario)});
    }
    return rows;
}

Table
sensitivityTable()
{
    Table table("Headline-conclusion robustness under calibration "
                "perturbations (H3: position = SoC id, F = MLP feasible "
                "at 1024 channels, . = infeasible)");
    table.setHeader({"scenario", "H1 OOK always crosses",
                     "H2 gain @20% / @100%",
                     "H3 MLP feasibility (SoCs 1-8)"});
    for (const SensitivityRow &row : sensitivityRows()) {
        table.addRow({row.scenario, row.h1AlwaysCrosses ? "yes" : "NO",
                      Table::formatNumber(row.h2GainAt20, 2) + "x / " +
                          Table::formatNumber(row.h2GainAt100, 2) + "x",
                      row.h3Pattern});
    }
    return table;
}

} // namespace mindful::core::experiments
