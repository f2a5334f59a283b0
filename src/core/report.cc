#include "core/report.hh"

#include <array>
#include <cstdint>
#include <sstream>

#include "base/table.hh"
#include "core/comm_centric.hh"
#include "core/comp_centric.hh"
#include "core/experiments.hh"
#include "core/multi_implant.hh"
#include "core/optimization.hh"
#include "core/qam_study.hh"

namespace mindful::core {

namespace {

/** Channel counts examined by the per-scale sections. */
constexpr std::array<std::uint64_t, 3> kChannelCounts{2048, 4096, 8192};

std::string
num(double value, int precision = 2)
{
    return Table::formatNumber(value, precision);
}

std::string
pct(double fraction)
{
    return num(fraction * 100.0, 1) + "%";
}

void
overviewSection(std::ostringstream &os, const SocDesign &design,
                const ImplantModel &implant)
{
    os << "# MINDFUL design report: " << design.name << "\n\n";
    if (!design.reference.empty())
        os << "*Reference:* " << design.reference << "\n\n";

    os << "## Overview\n\n";
    os << "| parameter | value |\n|---|---|\n";
    os << "| reported channels | " << design.reportedChannels << " |\n";
    os << "| reported area | "
       << num(design.reportedArea.inSquareMillimetres()) << " mm^2 |\n";
    os << "| reported power | "
       << num(design.reportedPower.inMilliwatts(), 3) << " mW |\n";
    os << "| power density | "
       << num(design.reportedPowerDensity()
                  .inMilliwattsPerSquareCentimetre(),
              1)
       << " mW/cm^2 |\n";
    os << "| sampling | " << num(design.samplingFrequency.inKilohertz(), 1)
       << " kHz x " << design.sampleBits << " b |\n";
    os << "| wireless | " << (design.wireless ? "yes" : "no") << " |\n";

    os << "\nScaled to the 1024-channel standard (Sec. 4.1): "
       << num(implant.referenceArea().inSquareMillimetres(), 1)
       << " mm^2, " << num(implant.referencePower().inMilliwatts(), 2)
       << " mW, uplink "
       << num(implant.referenceDataRate().inMegabitsPerSecond(), 2)
       << " Mbps.";

    auto verdict = thermal::PowerBudget().check(implant.referencePower(),
                                                implant.referenceArea());
    os << " Thermal budget utilization "
       << pct(verdict.budgetUtilization) << " ("
       << (verdict.safe ? "SAFE" : "**OVER BUDGET**") << ").\n\n";
}

void
commSection(std::ostringstream &os, const ImplantModel &implant)
{
    os << "## Raw-data streaming (communication-centric)\n\n";

    CommCentricModel margin(implant, CommScalingStrategy::HighMargin);
    std::uint64_t crossover = margin.maxSafeChannels();
    os << "High-margin OOK scaling stays within the budget up to **"
       << crossover << " channels**";
    if (crossover >= 65536)
        os << " (no crossover in the scanned range)";
    os << ".\n\n";

    QamStudy qam(implant);
    os << "| channels | bits/symbol | min QAM efficiency |\n|---|---|---|\n";
    for (std::uint64_t n : kChannelCounts) {
        auto point = qam.evaluate(n);
        os << "| " << n << " | " << point.bitsPerSymbol << " | "
           << (point.minimumEfficiency > 10.0
                   ? std::string(">1000%")
                   : pct(point.minimumEfficiency))
           << " |\n";
    }
    os << "\nMax channels at 15% / 20% / 100% QAM efficiency: "
       << qam.maxChannels(0.15) << " / " << qam.maxChannels(0.20) << " / "
       << qam.maxChannels(1.0) << ".\n\n";
}

void
compSection(std::ostringstream &os, const ImplantModel &implant)
{
    os << "## On-implant decoding (computation-centric)\n\n";
    os << "| model | feasible @1024 | max channels | with partitioning "
          "|\n|---|---|---|---|\n";
    for (auto model : {experiments::SpeechModel::Mlp,
                       experiments::SpeechModel::DnCnn}) {
        CompCentricModel comp(implant,
                              experiments::speechModelBuilder(model));
        auto at_1024 = comp.evaluate(1024);
        os << "| " << experiments::toString(model) << " | "
           << (at_1024.feasible ? "yes" : "no") << " ("
           << pct(at_1024.budgetUtilization) << ") | "
           << comp.maxChannels() << " | " << comp.maxChannels(true)
           << " |\n";
    }

    os << "\n### Optimization ladder (MLP model size, % of "
          "unoptimized)\n\n";
    OptimizationStudy study(implant, experiments::speechModelBuilder(
                                         experiments::SpeechModel::Mlp));
    os << "| n | ChDr | La+ChDr | La+ChDr+Tech | +Dense "
          "|\n|---|---|---|---|---|\n";
    for (std::uint64_t n : kChannelCounts) {
        os << "| " << n << " |";
        for (const auto &steps :
             {OptimizationSteps::chDr(), OptimizationSteps::laChDr(),
              OptimizationSteps::laChDrTech(),
              OptimizationSteps::laChDrTechDense()}) {
            auto outcome = study.evaluate(n, steps);
            os << ' '
               << (outcome.feasible ? pct(outcome.modelSizeFraction)
                                    : std::string("infeasible"))
               << " |";
        }
        os << '\n';
    }
    os << '\n';
}

void
multiImplantSection(std::ostringstream &os, const ImplantModel &implant)
{
    os << "## Multi-implant option\n\n";
    MultiImplantStudy study(implant);
    os << "| total channels | min implants | best count | total power "
          "|\n|---|---|---|---|\n";
    for (std::uint64_t n : kChannelCounts) {
        auto minimum = study.minimumImplants(n);
        auto best = study.bestImplantCount(n);
        os << "| " << n << " | "
           << (minimum ? std::to_string(minimum) : std::string("-"))
           << " | " << (best ? std::to_string(best) : std::string("-"))
           << " | ";
        if (best)
            os << num(study.evaluate(n, best).totalPower.inMilliwatts(),
                      1)
               << " mW";
        else
            os << "-";
        os << " |\n";
    }
    os << '\n';
}

} // namespace

std::string
designReport(const SocDesign &design)
{
    ImplantModel implant(design);
    std::ostringstream os;

    overviewSection(os, design, implant);
    commSection(os, implant);
    compSection(os, implant);
    multiImplantSection(os, implant);

    os << "---\nGenerated by MINDFUL-cpp.\n";
    return os.str();
}

} // namespace mindful::core
