/**
 * @file
 * Monte-Carlo BER vs Eb/N0 sweep for the Gray-QAM and OOK channel
 * simulators — the executable ground truth behind the Fig. 7
 * feasibility study, and the showcase for the deterministic parallel
 * Monte-Carlo machinery: output is byte-identical for any --threads
 * value, so `qam_ber_sweep --csv --threads 8` is a drop-in faster
 * spelling of `--threads 1` (docs/parallelism.md).
 *
 * Usage: qam_ber_sweep [--csv] [--threads N] [--symbols N]
 */

#include <cstdint>
#include <string>

#include "base/decibel.hh"
#include "bench_util.hh"
#include "comm/channel_sim.hh"
#include "comm/modulation.hh"

int
main(int argc, char **argv)
{
    mindful::bench::ObsGuard _obs(argc, argv);
    using namespace mindful;

    bool csv = bench::csvOnly(argc, argv);
    const bench::Result<std::uint64_t> parsed =
        bench::flagValue(argc, argv, "--symbols", 200000);
    if (!parsed.ok())
        return bench::failed("qam_ber_sweep", parsed.error);
    const std::uint64_t symbols = parsed.value;

    Table table("Monte-Carlo BER vs Eb/N0 (" + std::to_string(symbols) +
                " symbols per point)");
    table.setHeader({"ebn0_db", "qam4_ber", "qam16_ber", "qam64_ber",
                     "ook_ber", "ook_analytic"});

    comm::AwgnChannelSimulator qam4(2);
    comm::AwgnChannelSimulator qam16(4);
    comm::AwgnChannelSimulator qam64(6);
    comm::OokChannelSimulator ook;
    for (double ebn0_db = 0.0; ebn0_db <= 14.0; ebn0_db += 2.0) {
        const double ebn0 = fromDecibels(ebn0_db);
        table.addRow({
            Table::formatNumber(ebn0_db, 1),
            Table::formatNumber(qam4.measureBer(ebn0, symbols).ber(), 6),
            Table::formatNumber(qam16.measureBer(ebn0, symbols).ber(), 6),
            Table::formatNumber(qam64.measureBer(ebn0, symbols).ber(), 6),
            Table::formatNumber(ook.measureBer(ebn0, symbols).ber(), 6),
            Table::formatNumber(comm::ookBitErrorRate(ebn0), 6),
        });
    }
    bench::emit(table, csv);
    return 0;
}
