/**
 * @file
 * The table driver: prints every paper table and figure, and every
 * extension table, as ASCII on stdout and writes each as
 * DIR/<stem>.csv (default DIR: ./data), mirroring the paper
 * artifact's data/ output directory (Sec. A.5.1). Plot from these
 * CSVs with any external tool.
 *
 *   export_figures [DIR] [--threads N] [--trace-out FILE]
 *                  [--metrics-out FILE]
 *
 * Exits 1 with a message naming the path when DIR cannot be created
 * or a CSV cannot be written.
 */

#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <system_error>

#include "bench_util.hh"
#include "core/experiments.hh"

namespace {

using namespace mindful;
namespace ex = mindful::core::experiments;
namespace fs = std::filesystem;

/** One CSV under DIR and the builder of its table. */
struct Export
{
    std::string stem;
    std::function<Table()> build;
};

std::vector<Export>
exports()
{
    using core::CommScalingStrategy;
    std::vector<Export> list = {
        {"table1", ex::table1},
        {"fig4_scaled_1024", ex::fig4Table},
        {"fig5_naive",
         [] { return ex::fig5Table(CommScalingStrategy::Naive); }},
        {"fig5_high_margin",
         [] { return ex::fig5Table(CommScalingStrategy::HighMargin); }},
        {"fig6_naive",
         [] { return ex::fig6Table(CommScalingStrategy::Naive); }},
        {"fig6_high_margin",
         [] { return ex::fig6Table(CommScalingStrategy::HighMargin); }},
        {"fig7_qam_efficiency", ex::fig7Table},
        {"fig7_qam_summary", ex::fig7SummaryTable},
        {"fig9_accelerator", ex::fig9Table},
        {"fig10_mlp", [] { return ex::fig10Table(ex::SpeechModel::Mlp); }},
        {"fig10_dn_cnn",
         [] { return ex::fig10Table(ex::SpeechModel::DnCnn); }},
        {"fig11_partitioning", ex::fig11Table},
    };
    for (int soc = 1; soc <= 8; ++soc)
        list.push_back({"fig12_soc" + std::to_string(soc),
                        [soc] { return ex::fig12Table(soc); }});
    list.insert(list.end(),
                {{"ext_workload_macs", ex::workloadCostTable},
                 {"ext_snn_power", ex::snnPowerTable},
                 {"ext_workload_frontier", ex::workloadFrontierTable},
                 {"ext_power_ceiling", ex::powerCeilingTable},
                 {"ext_event_streaming", ex::eventStreamingTable},
                 {"ext_multi_implant", ex::multiImplantTable},
                 {"ext_closed_loop", ex::closedLoopTable},
                 {"ext_sensitivity", ex::sensitivityTable}});
    return list;
}

/** Write @p table as CSV to @p path; false when any write failed. */
bool
writeCsv(const fs::path &path, const Table &table)
{
    std::ofstream file(path);
    table.printCsv(file);
    file.close();
    return !file.fail();
}

} // namespace

int
main(int argc, char **argv)
{
    // Failures return from main, not exit(), so the guard still
    // closes a --trace-out file as valid JSON.
    bench::ObsGuard _obs(argc, argv);

    const fs::path dir = argc > 1 ? fs::path(argv[1]) : fs::path("data");
    std::error_code error;
    fs::create_directories(dir, error);
    if (error)
        return bench::failed("export_figures", "cannot create " +
                                                    dir.string() + ": " +
                                                    error.message());

    for (const Export &entry : exports()) {
        const Table table = entry.build();
        table.print(std::cout);
        const fs::path path = dir / (entry.stem + ".csv");
        if (!writeCsv(path, table))
            return bench::failed("export_figures",
                                 "cannot write " + path.string());
        std::cout << "wrote " << path.string() << "\n\n";
    }
    return 0;
}
