#include "core/experiments.hh"

#include <array>
#include <sstream>

#include "base/logging.hh"
#include "core/soc_catalog.hh"
#include "dnn/models.hh"
#include "exec/parallel.hh"
#include "obs/collector.hh"
#include "obs/metrics.hh"

namespace mindful::core::experiments {

namespace {

std::vector<std::uint64_t>
range(std::uint64_t first, std::uint64_t last, std::uint64_t step)
{
    std::vector<std::uint64_t> values;
    for (std::uint64_t n = first; n <= last; n += step)
        values.push_back(n);
    return values;
}

std::string
formatPercent(double fraction)
{
    return Table::formatNumber(fraction * 100.0, 1) + "%";
}

} // namespace

Table
table1()
{
    MINDFUL_TRACE_SCOPE("core", "experiments.table1");
    MINDFUL_METRIC_COUNT("core.experiments.runs", 1);
    Table table("Table 1: summary of implanted SoC designs");
    table.setHeader({"#", "SoC", "NI Type", "#Channels", "Area (mm^2)",
                     "Power (mW)", "Pd (mW/cm^2)", "f (kHz)", "Wireless",
                     "In/Ex-vivo"});
    for (const auto &soc : socCatalog()) {
        table.addRow({
            std::to_string(soc.id),
            soc.name,
            ni::toString(soc.sensorType),
            std::to_string(soc.reportedChannels),
            Table::formatNumber(soc.reportedArea.inSquareMillimetres(), 2),
            Table::formatNumber(soc.reportedPower.inMilliwatts(), 3),
            Table::formatNumber(
                soc.reportedPowerDensity()
                    .inMilliwattsPerSquareCentimetre(),
                1),
            Table::formatNumber(soc.samplingFrequency.inKilohertz(), 0),
            soc.wireless ? "Yes" : "No",
            soc.validatedInOrExVivo ? "Yes" : "No",
        });
    }
    return table;
}

std::vector<Fig4Row>
fig4Rows()
{
    MINDFUL_TRACE_SCOPE("core", "experiments.fig4");
    MINDFUL_METRIC_COUNT("core.experiments.runs", 1);
    thermal::PowerBudget budget;
    std::vector<Fig4Row> rows;
    for (const auto &soc : socCatalog()) {
        Fig4Row row;
        row.point = scaleDesign(soc, kStandardChannels);
        row.budget = budget.budget(row.point.area);
        row.safe = row.point.power <= row.budget;
        rows.push_back(row);
    }
    return rows;
}

Table
fig4Table()
{
    Table table("Fig. 4: designs scaled to 1024 channels vs power budget");
    table.setHeader({"#", "SoC", "Area (mm^2)", "Power (mW)",
                     "Pd (mW/cm^2)", "Budget (mW)", "Safe"});
    for (const auto &row : fig4Rows()) {
        table.addRow({
            std::to_string(row.point.socId),
            row.point.name,
            Table::formatNumber(row.point.area.inSquareMillimetres(), 1),
            Table::formatNumber(row.point.power.inMilliwatts(), 2),
            Table::formatNumber(row.point.powerDensity()
                                    .inMilliwattsPerSquareCentimetre(),
                                1),
            Table::formatNumber(row.budget.inMilliwatts(), 2),
            row.safe ? "yes" : "NO",
        });
    }
    return table;
}

std::vector<std::uint64_t>
fig5Channels()
{
    return {1024, 2048, 4096, 8192};
}

std::vector<std::uint64_t>
fig6Channels()
{
    return range(1024, 8192, 1024);
}

std::vector<CommSweepSeries>
commCentricSweep(CommScalingStrategy strategy,
                 const std::vector<std::uint64_t> &channels)
{
    MINDFUL_TRACE_SCOPE("core", "experiments.comm_sweep");
    MINDFUL_METRIC_COUNT("core.experiments.runs", 1);
    std::vector<CommSweepSeries> series;
    for (const auto &soc : wirelessSocs()) {
        CommCentricModel model{ImplantModel(soc), strategy};
        CommSweepSeries entry;
        entry.socId = soc.id;
        entry.name = soc.name;
        entry.strategy = strategy;
        entry.points = model.sweep(channels);
        series.push_back(std::move(entry));
    }
    return series;
}

namespace {

std::string
strategyName(CommScalingStrategy strategy)
{
    return strategy == CommScalingStrategy::Naive ? "naive" : "high-margin";
}

} // namespace

Table
fig5Table(CommScalingStrategy strategy)
{
    auto channels = fig5Channels();
    Table table("Fig. 5 (" + strategyName(strategy) +
                "): Psoc / Pbudget vs channel count");
    std::vector<std::string> header{"#", "SoC"};
    for (auto n : channels)
        header.push_back("n=" + std::to_string(n));
    table.setHeader(header);

    for (const auto &series : commCentricSweep(strategy, channels)) {
        std::vector<std::string> row{std::to_string(series.socId),
                                     series.name};
        for (const auto &point : series.points) {
            std::string cell =
                Table::formatNumber(point.budgetUtilization, 2);
            if (!point.safe())
                cell += " (OVER)";
            row.push_back(cell);
        }
        table.addRow(row);
    }
    return table;
}

Table
fig6Table(CommScalingStrategy strategy)
{
    auto channels = fig6Channels();
    Table table("Fig. 6 (" + strategyName(strategy) +
                "): sensing area / total area vs channel count");
    std::vector<std::string> header{"#", "SoC"};
    for (auto n : channels)
        header.push_back("n=" + std::to_string(n));
    table.setHeader(header);

    for (const auto &series : commCentricSweep(strategy, channels)) {
        std::vector<std::string> row{std::to_string(series.socId),
                                     series.name};
        for (const auto &point : series.points)
            row.push_back(
                Table::formatNumber(point.sensingAreaFraction, 3));
        table.addRow(row);
    }
    return table;
}

std::vector<std::uint64_t>
fig7Channels()
{
    return range(1024, 6144, 256);
}

std::vector<QamSeries>
qamSweep(const std::vector<std::uint64_t> &channels, QamStudyConfig config)
{
    MINDFUL_TRACE_SCOPE("core", "experiments.qam_sweep");
    MINDFUL_METRIC_COUNT("core.experiments.runs", 1);
    std::vector<QamSeries> series;
    for (const auto &soc : wirelessSocs()) {
        QamStudy study{ImplantModel(soc), config};
        QamSeries entry;
        entry.socId = soc.id;
        entry.name = soc.name;
        entry.points = study.sweep(channels);
        series.push_back(std::move(entry));
    }
    return series;
}

QamSummary
qamSummary(double efficiency, QamStudyConfig config)
{
    MINDFUL_TRACE_SCOPE("core", "experiments.qam_summary");
    MINDFUL_METRIC_COUNT("core.experiments.runs", 1);
    QamSummary summary;
    summary.efficiency = efficiency;
    double total = 0.0;
    std::size_t count = 0;
    for (const auto &soc : wirelessSocs()) {
        QamStudy study{ImplantModel(soc), config};
        total += static_cast<double>(study.maxChannels(efficiency));
        ++count;
    }
    summary.averageMaxChannels = count ? total / static_cast<double>(count)
                                       : 0.0;
    summary.averageGain =
        summary.averageMaxChannels / static_cast<double>(kStandardChannels);
    return summary;
}

Table
fig7Table()
{
    auto channels = fig7Channels();
    Table table("Fig. 7: minimum QAM efficiency [%] to meet the power "
                "budget");
    std::vector<std::string> header{"n", "bits/sym"};
    auto sweep = qamSweep(channels, {});
    for (const auto &series : sweep)
        header.push_back(series.name);
    header.push_back("mean");
    table.setHeader(header);

    for (std::size_t i = 0; i < channels.size(); ++i) {
        std::vector<std::string> row{std::to_string(channels[i])};
        row.push_back(
            std::to_string(sweep.front().points[i].bitsPerSymbol));
        double sum = 0.0;
        for (const auto &series : sweep) {
            double eta = series.points[i].minimumEfficiency;
            sum += eta;
            row.push_back(eta > 10.0 ? ">1000%" : formatPercent(eta));
        }
        double mean = sum / static_cast<double>(sweep.size());
        row.push_back(mean > 10.0 ? ">1000%" : formatPercent(mean));
        table.addRow(row);
    }
    return table;
}

std::vector<Fig9Row>
fig9Rows()
{
    MINDFUL_TRACE_SCOPE("core", "experiments.fig9");
    MINDFUL_METRIC_COUNT("core.experiments.runs", 1);
    const accel::SynthesisModel model;
    const auto points = accel::SynthesisModel::paperDesignPoints();
    // One shard per design point; every shard writes its own row, so
    // the result is index-ordered regardless of scheduling.
    std::vector<Fig9Row> rows(points.size());
    exec::parallelFor(
        points.size(),
        [&](std::size_t i) {
            rows[i].design = static_cast<int>(i) + 1;
            rows[i].point = points[i];
            rows[i].estimate = model.estimate(points[i]);
        },
        "core.fig9.design_point");
    return rows;
}

Table
fig9Table()
{
    Table table("Fig. 9: accelerator synthesis design points (130 nm, "
                "100 MHz, 8-bit)");
    table.setHeader({"Design", "MACseq", "MAChw", "#MACop",
                     "Layer power (uW)", "PE power (uW)", "PE share"});
    for (const auto &row : fig9Rows()) {
        table.addRow({
            std::to_string(row.design),
            std::to_string(row.point.macSeq),
            std::to_string(row.point.macHw),
            std::to_string(row.point.macOp),
            Table::formatNumber(row.estimate.layerPower.inMicrowatts(), 0),
            Table::formatNumber(row.estimate.pePower.inMicrowatts(), 0),
            formatPercent(row.estimate.peShare),
        });
    }
    return table;
}

std::string
toString(SpeechModel model)
{
    return model == SpeechModel::Mlp ? "MLP" : "DN-CNN";
}

ModelBuilder
speechModelBuilder(SpeechModel model)
{
    if (model == SpeechModel::Mlp) {
        return [](std::uint64_t channels) {
            return dnn::buildSpeechMlp(channels);
        };
    }
    return [](std::uint64_t channels) {
        return dnn::buildSpeechDnCnn(channels);
    };
}

std::vector<std::uint64_t>
fig10Channels()
{
    return range(1024, 7168, 1024);
}

std::vector<DnnPowerSeries>
dnnPowerSweep(SpeechModel model, const std::vector<std::uint64_t> &channels)
{
    MINDFUL_TRACE_SCOPE("core", "experiments.dnn_power_sweep");
    MINDFUL_METRIC_COUNT("core.experiments.runs", 1);
    std::vector<DnnPowerSeries> series;
    for (const auto &soc : wirelessSocs()) {
        CompCentricModel comp{ImplantModel(soc),
                              speechModelBuilder(model)};
        DnnPowerSeries entry;
        entry.socId = soc.id;
        entry.name = soc.name;
        entry.model = model;
        for (auto n : channels)
            entry.points.push_back(comp.evaluate(n));
        entry.maxChannels = comp.maxChannels();
        series.push_back(std::move(entry));
    }
    return series;
}

Table
fig10Table(SpeechModel model)
{
    auto channels = fig10Channels();
    Table table("Fig. 10 (" + toString(model) +
                "): Psoc / Pbudget with the on-implant DNN lower bound");
    std::vector<std::string> header{"#", "SoC"};
    for (auto n : channels)
        header.push_back("n=" + std::to_string(n));
    header.push_back("max n");
    table.setHeader(header);

    for (const auto &series : dnnPowerSweep(model, channels)) {
        std::vector<std::string> row{std::to_string(series.socId),
                                     series.name};
        for (const auto &point : series.points) {
            if (!point.bound.feasible) {
                row.push_back("RT-infeasible");
            } else {
                std::string cell =
                    Table::formatNumber(point.budgetUtilization, 2);
                if (!point.feasible)
                    cell += " (OVER)";
                row.push_back(cell);
            }
        }
        row.push_back(std::to_string(series.maxChannels));
        table.addRow(row);
    }
    return table;
}

std::vector<PartitionGainRow>
partitionGains(SpeechModel model)
{
    MINDFUL_TRACE_SCOPE("core", "experiments.partition_gains");
    MINDFUL_METRIC_COUNT("core.experiments.runs", 1);
    const auto socs = wirelessSocs();
    // One shard per SoC: the per-SoC binary searches over maxChannels
    // dominate this study, and each writes only its own row. Row
    // metadata (string copies) is filled serially up front.
    std::vector<PartitionGainRow> rows(socs.size());
    for (std::size_t i = 0; i < socs.size(); ++i) {
        rows[i].socId = socs[i].id;
        rows[i].name = socs[i].name;
        rows[i].model = model;
    }
    // analyze: hot-ok(building the per-SoC DNN model and binary-searching maxChannels IS this shard's unit of work; the model construction allocates once per shard, not per inner iteration)
    exec::parallelFor(
        socs.size(),
        [&](std::size_t i) {
            const SocDesign &soc = socs[i];
            CompCentricModel comp{ImplantModel(soc),
                                  speechModelBuilder(model)};
            PartitionGainRow &row = rows[i];
            row.maxChannelsFull = comp.maxChannels(false);
            row.maxChannelsPartitioned = comp.maxChannels(true);
            row.gain =
                row.maxChannelsFull
                    ? static_cast<double>(row.maxChannelsPartitioned) /
                          static_cast<double>(row.maxChannelsFull)
                    : 1.0;
        },
        "core.fig11.partition_soc");
    return rows;
}

Table
fig11Table()
{
    Table table("Fig. 11: channel-count increase from DNN partitioning");
    table.setHeader({"#", "SoC", "Model", "max n (full)",
                     "max n (partitioned)", "gain"});
    for (SpeechModel model : {SpeechModel::Mlp, SpeechModel::DnCnn}) {
        for (const auto &row : partitionGains(model)) {
            table.addRow({
                std::to_string(row.socId),
                row.name,
                toString(row.model),
                std::to_string(row.maxChannelsFull),
                std::to_string(row.maxChannelsPartitioned),
                Table::formatNumber(row.gain, 2) + "x",
            });
        }
    }
    return table;
}

std::vector<std::uint64_t>
fig12Channels()
{
    return {2048, 4096, 8192};
}

std::vector<OptimizationSeries>
optimizationSweep(int soc_id, SpeechModel model)
{
    MINDFUL_TRACE_SCOPE("core", "experiments.optimization_sweep");
    MINDFUL_METRIC_COUNT("core.experiments.runs", 1);
    const SocDesign &soc = socById(soc_id);
    OptimizationStudy study{ImplantModel(soc), speechModelBuilder(model)};

    const auto channels = fig12Channels();
    // The four cumulative ladders are built once, and every series
    // gets its metadata (string copies) and outcome slots in this
    // serial prologue; the shards then only evaluate and write into
    // their own preallocated slots, keeping the pool task free of
    // allocation and container growth.
    const std::array<OptimizationSteps, 4> ladders{
        OptimizationSteps::chDr(), OptimizationSteps::laChDr(),
        OptimizationSteps::laChDrTech(),
        OptimizationSteps::laChDrTechDense()};
    std::vector<OptimizationSeries> sweep(channels.size());
    for (std::size_t i = 0; i < channels.size(); ++i) {
        sweep[i].socId = soc.id;
        sweep[i].name = soc.name;
        sweep[i].channels = channels[i];
        sweep[i].outcomes.resize(ladders.size());
    }
    // One shard per channel count n; each shard evaluates the four
    // cumulative optimization ladders for its own n.
    exec::parallelFor(
        channels.size(),
        [&](std::size_t i) {
            for (std::size_t k = 0; k < ladders.size(); ++k)
                sweep[i].outcomes[k] =
                    study.evaluate(channels[i], ladders[k]);
        },
        "core.fig12.channel_count");
    return sweep;
}

Table
fig12Table(int soc_id)
{
    std::ostringstream title;
    title << "Fig. 12 (SoC " << soc_id
          << "): feasible MLP model size [% of unoptimized] after "
             "cumulative optimizations";
    Table table(title.str());
    table.setHeader({"n", "ChDr", "La+ChDr", "La+ChDr+Tech",
                     "La+ChDr+Tech+Dense"});
    for (const auto &series : optimizationSweep(soc_id)) {
        std::vector<std::string> row{std::to_string(series.channels)};
        for (const auto &outcome : series.outcomes) {
            row.push_back(outcome.feasible
                              ? formatPercent(outcome.modelSizeFraction)
                              : "infeasible");
        }
        table.addRow(row);
    }
    return table;
}

} // namespace mindful::core::experiments
