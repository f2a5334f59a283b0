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
 * one shard runs inline). Within each round the shard counts run
 * interleaved, a batch of calls each, so drift hits them alike; the
 * table reports the median over rounds of process CPU time and wall
 * time per call, in µs, and the shard count gemm::rowShards picks.
 *
 *   shard_sweep [--rounds N] [--batch-ms T] [--csv] [--threads N]
 *
 * Defaults (5 rounds of 4 ms batches) finish in seconds; the docs
 * table used --rounds 21 --batch-ms 10 on the 4-thread pool.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <optional>
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

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
}

/** Per-call CPU and wall medians of one shape at each shard count. */
struct Timings
{
    std::vector<double> cpuUs, wallUs;
};

Timings
sweep(const Shape &s, std::size_t rounds, double batch_ms)
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

    auto call = [&](std::size_t shards) {
        if (shards == 1) {
            kernel(s.n, s.k, a.data(), b.data(), bias.data(), c.data(), 0,
                   s.m, true);
            return;
        }
        exec::parallelFor(
            shards,
            [&](std::size_t shard) {
                const dnn::gemm::RowRange rows =
                    dnn::gemm::rowShard(s.m, shards, shard);
                kernel(s.n, s.k, a.data(), b.data(), bias.data(), c.data(),
                       rows.begin, rows.end, true);
            },
            "bench.shard_sweep");
    };

    // Size one batch from a warm single-shard call.
    call(1);
    const double start = wallSeconds();
    call(1);
    const double once_ms = 1e3 * (wallSeconds() - start);
    const auto reps = static_cast<std::size_t>(
        std::max(1.0, batch_ms / std::max(once_ms, 1e-3)));

    std::vector<std::vector<double>> cpu(counts.size()), wall(counts.size());
    for (std::size_t round = 0; round < rounds; ++round) {
        for (std::size_t j = 0; j < counts.size(); ++j) {
            // Rotate the order so no shard count always runs first.
            const std::size_t at = (j + round) % counts.size();
            const double cpu0 = cpuSeconds();
            const double wall0 = wallSeconds();
            for (std::size_t r = 0; r < reps; ++r)
                call(counts[at]);
            const double per_call = 1e6 / static_cast<double>(reps);
            cpu[at].push_back((cpuSeconds() - cpu0) * per_call);
            wall[at].push_back((wallSeconds() - wall0) * per_call);
        }
    }
    Timings timings;
    for (std::size_t j = 0; j < counts.size(); ++j) {
        timings.cpuUs.push_back(median(cpu[j]));
        timings.wallUs.push_back(median(wall[j]));
    }
    return timings;
}

std::uint64_t
flagValue(int argc, char **argv, const std::string &flag,
          std::uint64_t fallback)
{
    for (int i = 1; i < argc; ++i) {
        if (argv[i] != flag)
            continue;
        const auto value =
            i + 1 < argc ? parseUnsigned(argv[i + 1]) : std::nullopt;
        if (!value || *value == 0)
            MINDFUL_FATAL(flag, " requires a positive integer");
        return *value;
    }
    return fallback;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::ObsGuard _obs(argc, argv);
    const bool csv = bench::csvOnly(argc, argv);
    const std::size_t rounds = flagValue(argc, argv, "--rounds", 5);
    const double batch_ms =
        static_cast<double>(flagValue(argc, argv, "--batch-ms", 4));

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
        const Timings t = sweep(s, rounds, batch_ms);
        std::vector<std::string> row{
            s.net, "L" + std::to_string(s.layer), std::to_string(s.m),
            std::to_string(s.n), std::to_string(s.k), std::to_string(macs),
            std::to_string(dnn::gemm::rowShards(s.m, macs))};
        for (std::size_t j = 0; j < std::size(kShardCounts); ++j)
            row.push_back(j < t.cpuUs.size()
                              ? Table::formatNumber(t.cpuUs[j], 0) + " / " +
                                    Table::formatNumber(t.wallUs[j], 0)
                              : "-");
        table.addRow(row);
    }
    bench::emit(table, csv);
    return 0;
}
