/**
 * @file
 * Kalman decoder tests: model identification on known
 * linear-Gaussian systems and end-to-end decoding of synthetic
 * cortical recordings (the paper's traditional-algorithm baseline).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "base/random.hh"
#include "ni/synthetic_cortex.hh"
#include "signal/kalman.hh"
#include "signal/metrics.hh"

namespace mindful::signal {
namespace {

/** Simulate x_{t+1} = A x_t + w, y_t = H x_t + q. */
struct LinearSystem
{
    Matrix states;       // m x T
    Matrix observations; // n x T
};

LinearSystem
simulate(const Matrix &a, const Matrix &h, double q_std, double r_std,
         std::size_t steps, std::uint64_t seed)
{
    Rng rng(seed);
    const std::size_t m = a.rows();
    const std::size_t n = h.rows();
    LinearSystem sys{Matrix(m, steps), Matrix(n, steps)};

    Matrix x(m, 1);
    for (std::size_t t = 0; t < steps; ++t) {
        Matrix next = a * x;
        for (std::size_t i = 0; i < m; ++i)
            next(i, 0) += rng.gaussian(0.0, q_std);
        x = next;
        for (std::size_t i = 0; i < m; ++i)
            sys.states(i, t) = x(i, 0);
        Matrix y = h * x;
        for (std::size_t i = 0; i < n; ++i)
            sys.observations(i, t) = y(i, 0) + rng.gaussian(0.0, r_std);
    }
    return sys;
}

TEST(KalmanDecoderTest, RecoversTransitionAndObservationMatrices)
{
    Matrix a{{0.95, 0.1}, {-0.1, 0.9}};
    Matrix h{{1.0, 0.0}, {0.0, 1.0}, {0.5, -0.5}};
    auto sys = simulate(a, h, 0.3, 0.05, 6000, 11);

    KalmanDecoder decoder;
    decoder.train(sys.states, sys.observations);
    EXPECT_TRUE(decoder.trained());
    EXPECT_EQ(decoder.stateDim(), 2u);
    EXPECT_EQ(decoder.observationDim(), 3u);
    EXPECT_LT(decoder.transition().maxAbsDiff(a), 0.05);
    EXPECT_LT(decoder.observationMatrix().maxAbsDiff(h), 0.05);
}

TEST(KalmanDecoderTest, FilterTracksState)
{
    Matrix a{{0.98, 0.05}, {-0.05, 0.97}};
    Matrix h(6, 2);
    Rng rng(13);
    for (std::size_t i = 0; i < 6; ++i)
        for (std::size_t j = 0; j < 2; ++j)
            h(i, j) = rng.gaussian();
    auto train = simulate(a, h, 0.3, 0.4, 4000, 17);
    auto test = simulate(a, h, 0.3, 0.4, 1500, 19);

    KalmanDecoder decoder;
    decoder.train(train.states, train.observations);
    Matrix decoded = decoder.decode(test.observations);
    double corr = meanRowCorrelation(decoded, test.states);
    EXPECT_GT(corr, 0.9);
}

TEST(KalmanDecoderTest, FilteringBeatsRawLeastSquaresOnNoisyObs)
{
    // With heavy observation noise the Kalman prior should beat the
    // instantaneous pseudo-inverse readout.
    Matrix a{{0.995}};
    Matrix h{{1.0}};
    auto train = simulate(a, h, 0.1, 1.0, 6000, 23);
    auto test = simulate(a, h, 0.1, 1.0, 2000, 29);

    KalmanDecoder decoder;
    decoder.train(train.states, train.observations);
    Matrix decoded = decoder.decode(test.observations);

    std::vector<double> truth(test.states.cols()), kalman(decoded.cols()),
        raw(test.observations.cols());
    for (std::size_t t = 0; t < truth.size(); ++t) {
        truth[t] = test.states(0, t);
        kalman[t] = decoded(0, t);
        raw[t] = test.observations(0, t);
    }
    EXPECT_LT(rmse(kalman, truth), rmse(raw, truth) * 0.7);
}

TEST(KalmanDecoderTest, StepMatchesBatchDecode)
{
    Matrix a{{0.9, 0.0}, {0.0, 0.8}};
    Matrix h{{1.0, 0.5}, {0.2, 1.0}};
    auto sys = simulate(a, h, 0.2, 0.2, 1000, 31);

    KalmanDecoder decoder;
    decoder.train(sys.states, sys.observations);
    Matrix batch = decoder.decode(sys.observations);

    decoder.resetState();
    std::vector<double> obs(2);
    for (std::size_t t = 0; t < 50; ++t) {
        obs[0] = sys.observations(0, t);
        obs[1] = sys.observations(1, t);
        auto estimate = decoder.step(obs);
        EXPECT_NEAR(estimate[0], batch(0, t), 1e-9);
        EXPECT_NEAR(estimate[1], batch(1, t), 1e-9);
    }
}

TEST(KalmanDecoderDeathTest, UntrainedUsePanics)
{
    KalmanDecoder decoder;
    EXPECT_DEATH(decoder.step({1.0}), "trained");
}

TEST(KalmanDecoderDeathTest, ObservationLengthChecked)
{
    Matrix a{{0.9}};
    Matrix h{{1.0}, {0.5}};
    auto sys = simulate(a, h, 0.2, 0.2, 100, 37);
    KalmanDecoder decoder;
    decoder.train(sys.states, sys.observations);
    EXPECT_DEATH(decoder.step({1.0, 2.0, 3.0}), "observation length");
}

TEST(DecoderBaselineTest, KalmanDecodesSyntheticCortexIntent)
{
    // The canonical BCI pipeline: binned spike counts -> intent.
    ni::SyntheticCortexConfig config;
    config.channels = 48;
    config.activeFraction = 0.75;
    config.maxRateHz = 80.0;
    config.intentTimeConstant = 0.6;
    config.seed = 51;
    ni::SyntheticCortex cortex(config);
    auto rec = cortex.generate(120000); // 15 s @ 8 kHz

    const std::size_t bin = 400; // 50 ms bins
    auto counts = rec.binnedCounts(bin);
    auto intent = rec.binnedIntent(bin);
    const std::size_t bins = counts[0].size();
    const std::size_t split = bins * 2 / 3;

    auto slice = [](const std::vector<std::vector<double>> &rows,
                    std::size_t from, std::size_t to) {
        Matrix m(rows.size(), to - from);
        for (std::size_t r = 0; r < rows.size(); ++r)
            for (std::size_t c = from; c < to; ++c)
                m(r, c - from) = rows[r][c];
        return m;
    };

    KalmanDecoder decoder;
    decoder.train(slice(intent, 0, split), slice(counts, 0, split));
    Matrix decoded = decoder.decode(slice(counts, split, bins));
    double corr =
        meanRowCorrelation(decoded, slice(intent, split, bins));
    EXPECT_GT(corr, 0.55) << "Kalman decode correlation too low";
}

TEST(MetricsTest, PearsonAnchors)
{
    std::vector<double> a{1.0, 2.0, 3.0, 4.0};
    std::vector<double> b{2.0, 4.0, 6.0, 8.0};
    std::vector<double> c{4.0, 3.0, 2.0, 1.0};
    EXPECT_NEAR(pearsonCorrelation(a, b), 1.0, 1e-12);
    EXPECT_NEAR(pearsonCorrelation(a, c), -1.0, 1e-12);
    std::vector<double> flat{5.0, 5.0, 5.0, 5.0};
    EXPECT_DOUBLE_EQ(pearsonCorrelation(a, flat), 0.0);
}

TEST(MetricsTest, RmseAndSnr)
{
    std::vector<double> x{1.0, 2.0, 3.0};
    std::vector<double> y{1.0, 2.0, 5.0};
    EXPECT_NEAR(rmse(x, y), std::sqrt(4.0 / 3.0), 1e-12);
    EXPECT_GT(snrDb(x, x), 200.0);
    EXPECT_NEAR(snrDb(y, x),
                10.0 * std::log10((1.0 + 4.0 + 9.0) / 4.0), 1e-9);
}

} // namespace
} // namespace mindful::signal
