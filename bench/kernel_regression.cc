/**
 * @file
 * Fast path against retained golden reference, for the kernel
 * perfbench does not time on its own: the Fig. 10 MLP trunk GEMV
 * (DenseLayer::forward vs forwardNaive). The output is golden-checked
 * against the reference before timing, and any mismatch fails.
 *
 * Fast path and reference run interleaved on bench::timeRounds; the
 * table reports process CPU µs per call and the per-round speedup
 * (reference over fast), each as median [first, third quartile].
 *
 *   kernel_regression [--rounds N] [--batch-ms T] [--csv] [--threads N]
 *
 * Defaults (5 rounds of 4 ms batches) finish in about a second.
 */

#include <functional>
#include <string>
#include <vector>

#include "base/random.hh"
#include "bench_util.hh"
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
 * Fig. 10 MLP trunk at n = 512 (latent 1024 -> trunk 768), or an
 * error naming the first element where the fast path diverges from
 * the naive reference.
 */
bench::Result<bench::RoundSamples>
benchDense(const std::string &name, const bench::RoundOptions &options)
{
    dnn::DenseLayer layer(1024, 768);
    Rng rng(37);
    layer.initializeWeights(rng);
    const dnn::Tensor x = makeInput({1024});
    const dnn::Tensor fast = layer.forward(x);
    const dnn::Tensor golden = layer.forwardNaive(x);
    for (std::size_t i = 0; i < fast.size(); ++i)
        if (fast[i] != golden[i])
            return {{}, name + ": output diverges from the naive "
                               "reference at element " +
                            std::to_string(i)};
    return {bench::timeRounds({[&] { layer.forward(x); },
                               [&] { layer.forwardNaive(x); }},
                              options),
            ""};
}

} // namespace

int
main(int argc, char **argv)
{
    bench::ObsGuard _obs(argc, argv);
    const bool csv = bench::csvOnly(argc, argv);
    const bench::Result<bench::RoundOptions> parsed =
        bench::roundOptions(argc, argv);
    if (!parsed.ok())
        return bench::failed("kernel_regression", parsed.error);
    const bench::RoundOptions &options = parsed.value;

    const std::string name = "dense_mlp_trunk";
    const bench::Result<bench::RoundSamples> timed =
        benchDense(name, options);
    if (!timed.ok())
        return bench::failed("kernel_regression", timed.error);
    const bench::RoundSamples &s = timed.value;

    Table table("Fast path vs retained reference: CPU us per call, "
                "median [q1, q3] over " +
                std::to_string(options.rounds) + " rounds");
    table.setHeader({"kernel", "fast_us", "reference_us", "speedup"});
    std::vector<double> speedup;
    for (std::size_t r = 0; r < options.rounds; ++r)
        speedup.push_back(s.cpuUs[1][r] / s.cpuUs[0][r]);
    table.addRow({name, formatQuartiles(s.cpuUs[0], 1),
                  formatQuartiles(s.cpuUs[1], 1),
                  formatQuartiles(speedup, 2)});
    bench::emit(table, csv);
    return 0;
}
