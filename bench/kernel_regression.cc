/**
 * @file
 * Fast path against retained golden reference, for the kernels
 * perfbench does not time on their own: the Fig. 10 MLP trunk GEMV
 * (DenseLayer::forward vs forwardNaive) and the packed channel-dropout
 * plan at three masks — the dense layer with half and an eighth of its
 * inputs kept, and the conv with half its channels kept (forward vs
 * forwardNaive over the mask-zeroed input). Every entry golden-checks
 * its output against the reference before timing and fails on any
 * mismatch.
 *
 * Fast path and reference run interleaved on bench::timeRounds; the
 * table reports process CPU µs per call and the per-round speedup
 * (reference over fast), each as median [first, third quartile].
 *
 *   kernel_regression [--rounds N] [--batch-ms T] [--csv] [--threads N]
 *
 * Defaults (5 rounds of 4 ms batches) finish in about a second.
 */

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "base/random.hh"
#include "bench_util.hh"
#include "dnn/conv.hh"
#include "dnn/dense.hh"

namespace {

using namespace mindful;

dnn::Tensor
makeInput(const dnn::Shape &shape)
{
    dnn::Tensor x(shape);
    Rng rng(29);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    return x;
}

/**
 * Deterministic mask with exactly @p active of @p units set, shuffled
 * so the surviving columns are scattered.
 */
std::vector<std::uint8_t>
dropoutMask(std::size_t units, std::size_t active, std::uint64_t seed)
{
    std::vector<std::uint8_t> mask(units, 0);
    for (std::size_t i = 0; i < active; ++i)
        mask[i] = 1;
    Rng rng(seed);
    for (std::size_t i = units - 1; i > 0; --i) {
        const auto j = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(i)));
        std::swap(mask[i], mask[j]);
    }
    return mask;
}

void
requireIdentical(const std::string &name, const dnn::Tensor &fast,
                 const dnn::Tensor &golden)
{
    for (std::size_t i = 0; i < fast.size(); ++i)
        if (fast[i] != golden[i])
            MINDFUL_FATAL(name, ": output diverges from the naive "
                          "reference at element ", i);
}

/** "median [q1, q3]" with @p precision decimals. */
std::string
formatQuartiles(const std::vector<double> &samples, int precision)
{
    const bench::Quartiles q = bench::quartiles(samples);
    return Table::formatNumber(q.median, precision) + " [" +
           Table::formatNumber(q.q1, precision) + ", " +
           Table::formatNumber(q.q3, precision) + "]";
}

/**
 * Fig. 10 MLP trunk at n = 512 (latent 1024 -> trunk 768). With
 * @p active < 1024 a channel-dropout mask is installed, and the GEMM
 * runs over the packed surviving columns (512 or 128 of them). The
 * reference is forwardNaive over the input with the dropped features
 * zeroed.
 */
bench::RoundSamples
benchDense(const std::string &name, std::size_t active,
           const bench::RoundOptions &options)
{
    constexpr std::size_t kIn = 1024;
    dnn::DenseLayer layer(kIn, 768);
    Rng rng(37);
    layer.initializeWeights(rng);
    const dnn::Tensor x = makeInput({kIn});
    dnn::Tensor masked = x;
    if (active < kIn) {
        const auto mask = dropoutMask(kIn, active, 43);
        layer.setInputDropout(mask);
        for (std::size_t i = 0; i < kIn; ++i)
            if (mask[i] == 0)
                masked[i] = 0.0f;
    }
    requireIdentical(name, layer.forward(x), layer.forwardNaive(masked));
    return bench::timeRounds({[&] { layer.forward(x); },
                              [&] { layer.forwardNaive(masked); }},
                             options);
}

/**
 * Packed-channel im2col conv at the Fig. 10 DN-CNN block-1 shape
 * (n = 512, alpha = 4: 66 -> 22 channels on 64 x 8 maps), half the
 * input planes dropped.
 */
bench::RoundSamples
benchConvDropout(const std::string &name,
                 const bench::RoundOptions &options)
{
    constexpr std::size_t kIn = 66;
    const dnn::Shape shape{kIn, 64, 8};
    dnn::Conv2dLayer conv(kIn, 22, 3, 3, 1, dnn::Padding::Same);
    Rng rng(31);
    conv.initializeWeights(rng);
    const auto mask = dropoutMask(kIn, kIn / 2, 47);
    conv.setInputDropout(mask);

    const dnn::Tensor x = makeInput(shape);
    dnn::Tensor masked = x;
    const std::size_t plane = shape[1] * shape[2];
    for (std::size_t ic = 0; ic < kIn; ++ic)
        if (mask[ic] == 0)
            std::fill(masked.data() + ic * plane,
                      masked.data() + (ic + 1) * plane, 0.0f);
    requireIdentical(name, conv.forward(x), conv.forwardNaive(masked));
    return bench::timeRounds({[&] { conv.forward(x); },
                              [&] { conv.forwardNaive(masked); }},
                             options);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::ObsGuard _obs(argc, argv);
    const bool csv = bench::csvOnly(argc, argv);
    const bench::RoundOptions options = bench::roundOptions(argc, argv);

    const std::pair<std::string, bench::RoundSamples> entries[] = {
        {"dense_mlp_trunk", benchDense("dense_mlp_trunk", 1024, options)},
        {"dense_mlp_trunk_drop50",
         benchDense("dense_mlp_trunk_drop50", 512, options)},
        {"dense_mlp_trunk_drop88",
         benchDense("dense_mlp_trunk_drop88", 128, options)},
        {"conv_dncnn_block1_drop50",
         benchConvDropout("conv_dncnn_block1_drop50", options)},
    };

    Table table("Fast path vs retained reference: CPU us per call, "
                "median [q1, q3] over " +
                std::to_string(options.rounds) + " rounds");
    table.setHeader({"kernel", "fast_us", "reference_us", "speedup"});
    for (const auto &[name, s] : entries) {
        std::vector<double> speedup;
        for (std::size_t r = 0; r < options.rounds; ++r)
            speedup.push_back(s.cpuUs[1][r] / s.cpuUs[0][r]);
        table.addRow({name, formatQuartiles(s.cpuUs[0], 1),
                      formatQuartiles(s.cpuUs[1], 1),
                      formatQuartiles(speedup, 2)});
    }
    bench::emit(table, csv);
    return 0;
}
