/**
 * @file
 * Shard-floor sweep behind gemm::kMinShardMacs (docs/performance.md,
 * "Shard floor").
 *
 * Times the dispatched row-range kernel on every GEMM shape of the
 * speech decoders — the dense layers of buildSpeechMlp(256) and
 * buildSpeechMlp(1024) (GEMV, n == 1) and the conv GEMMs of
 * buildSpeechDnCnn(256) — split into 1, 2, 4, 8 and 16 shards the
 * way biasGemm splits them (gemm::rowShard over exec::parallelFor;
 * one shard runs inline). The shard counts run interleaved, a batch
 * of calls each per round (bench::timeRounds), so drift hits them
 * alike; the table reports the median over rounds of process CPU
 * time and wall time per call, in µs, and the shard count
 * gemm::rowShards picks.
 *
 *   shard_sweep [--rounds N] [--batch-ms T] [--csv] [--threads N]
 *
 * Defaults (5 rounds of 4 ms batches) finish in seconds; the docs
 * table used --rounds 21 --batch-ms 10 on the 4-thread pool.
 */

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/cpu.hh"
#include "base/random.hh"
#include "bench_util.hh"
#include "dnn/conv.hh"
#include "dnn/dense.hh"
#include "dnn/gemm.hh"
#include "dnn/gemm_kernels.hh"
#include "dnn/models.hh"
#include "exec/parallel.hh"

namespace {

using namespace mindful;

constexpr std::size_t kShardCounts[] = {1, 2, 4, 8, 16};

/** One GEMM of a decoder: C[m x n] = A[m x k] * B[k x n]. */
struct Shape
{
    std::string net;
    std::size_t layer;
    std::size_t m, n, k;
};

/** Every dense and conv GEMM of @p net, from its MAC census. */
void
collectShapes(const dnn::Network &net, const std::string &label,
              std::vector<Shape> &out)
{
    const auto census = net.census();
    for (std::size_t i = 0; i < net.layerCount(); ++i) {
        const dnn::Layer &layer = net.layer(i);
        std::size_t m = 0;
        if (const auto *dense = dynamic_cast<const dnn::DenseLayer *>(&layer))
            m = dense->outFeatures();
        else if (const auto *conv =
                     dynamic_cast<const dnn::Conv2dLayer *>(&layer))
            m = conv->outChannels();
        else if (const auto *stage =
                     dynamic_cast<const dnn::DenseStage2dLayer *>(&layer))
            m = stage->conv().outChannels();
        if (m == 0)
            continue;
        const dnn::Shape &after = net.shapeAfter(i);
        const std::size_t n = after.size() == 3 ? after[1] * after[2] : 1;
        const std::size_t k = census[i].totalMacs() / (m * n);
        out.push_back({label, i, m, n, k});
    }
}

/** Per-call CPU and wall samples of one shape at each shard count. */
bench::RoundSamples
sweep(const Shape &s, const bench::RoundOptions &options)
{
    Rng rng(s.m * 131 + s.n * 17 + s.k);
    auto fill = [&](std::size_t count) {
        std::vector<float> v(count);
        for (float &x : v)
            x = static_cast<float>(rng.uniform(-1.0, 1.0));
        return v;
    };
    const std::vector<float> a = fill(s.m * s.k);
    const std::vector<float> b = fill(s.k * s.n);
    const std::vector<float> bias = fill(s.m);
    std::vector<float> c(s.m * s.n);
    const dnn::gemm::detail::RowRangeFn kernel =
        dnn::gemm::detail::dispatchKernel();

    const std::size_t blocks =
        (s.m + dnn::gemm::kRowBlock - 1) / dnn::gemm::kRowBlock;
    std::vector<std::size_t> counts;
    for (std::size_t shards : kShardCounts)
        if (shards <= blocks)
            counts.push_back(shards);

    std::vector<std::function<void()>> calls;
    for (const std::size_t shards : counts) {
        calls.push_back([&, shards] {
            if (shards == 1) {
                kernel(s.n, s.k, a.data(), b.data(), bias.data(), c.data(),
                       0, s.m, true);
                return;
            }
            exec::parallelFor(
                shards,
                [&](std::size_t shard) {
                    const dnn::gemm::RowRange rows =
                        dnn::gemm::rowShard(s.m, shards, shard);
                    kernel(s.n, s.k, a.data(), b.data(), bias.data(),
                           c.data(), rows.begin, rows.end, true);
                },
                "bench.shard_sweep");
        });
    }

    return bench::timeRounds(calls, options);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::ObsGuard _obs(argc, argv);
    const bool csv = bench::csvOnly(argc, argv);
    const bench::RoundOptions options = bench::roundOptions(argc, argv);

    std::vector<Shape> shapes;
    collectShapes(dnn::buildSpeechMlp(256), "MLP(256)", shapes);
    collectShapes(dnn::buildSpeechMlp(1024), "MLP(1024)", shapes);
    collectShapes(dnn::buildSpeechDnCnn(256), "DN-CNN(256)", shapes);

    Table table("Shard sweep: median CPU / wall us per call, " +
                std::string(simdIsaName(activeSimdIsa())) + ", " +
                std::to_string(exec::ThreadPool::globalThreadCount()) +
                " pool threads");
    std::vector<std::string> header{"net", "layer", "m", "n", "k",
                                    "MACs", "rowShards"};
    for (std::size_t shards : kShardCounts)
        header.push_back(std::to_string(shards) + " shard" +
                         (shards == 1 ? "" : "s"));
    table.setHeader(header);
    for (const Shape &s : shapes) {
        const std::uint64_t macs =
            static_cast<std::uint64_t>(s.m) * s.n * s.k;
        const bench::RoundSamples t = sweep(s, options);
        std::vector<std::string> row{
            s.net, "L" + std::to_string(s.layer), std::to_string(s.m),
            std::to_string(s.n), std::to_string(s.k), std::to_string(macs),
            std::to_string(dnn::gemm::rowShards(s.m, macs))};
        for (std::size_t j = 0; j < std::size(kShardCounts); ++j)
            row.push_back(
                j < t.cpuUs.size()
                    ? Table::formatNumber(
                          bench::quartiles(t.cpuUs[j]).median, 0) +
                          " / " +
                          Table::formatNumber(
                              bench::quartiles(t.wallUs[j]).median, 0)
                    : "-");
        table.addRow(row);
    }
    bench::emit(table, csv);
    return 0;
}
