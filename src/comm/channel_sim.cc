#include "comm/channel_sim.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iomanip>
#include <sstream>
#include <vector>

#include "base/decibel.hh"
#include "base/logging.hh"
#include "exec/parallel.hh"
#include "obs/collector.hh"
#include "obs/metrics.hh"

namespace mindful::comm {

namespace {

/** "10.0" for 10 dB — used in per-Eb/N0 metric names. */
std::string
formatDb(double eb_n0_linear)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(1) << toDecibels(eb_n0_linear);
    return os.str();
}

} // namespace

QamConstellation::QamConstellation(unsigned bits_per_symbol)
    : _bits(bits_per_symbol), _iBits((bits_per_symbol + 1) / 2),
      _qBits(bits_per_symbol / 2)
{
    MINDFUL_ASSERT(bits_per_symbol >= 1 && bits_per_symbol <= 16,
                   "bits per symbol must lie in [1, 16]");

    // Unit-spacing PAM levels +-1, +-3, ... have per-axis mean energy
    // (L^2 - 1) / 3; scale so the symbol mean energy equals k.
    auto axis_energy = [](unsigned bits) {
        if (bits == 0)
            return 0.0;
        double levels = std::pow(2.0, static_cast<double>(bits));
        return (levels * levels - 1.0) / 3.0;
    };
    double unit_energy = axis_energy(_iBits) + axis_energy(_qBits);
    _scale = std::sqrt(static_cast<double>(_bits) / unit_energy);
}

std::uint32_t
QamConstellation::binaryToGray(std::uint32_t value)
{
    return value ^ (value >> 1);
}

std::uint32_t
QamConstellation::grayToBinary(std::uint32_t value)
{
    std::uint32_t binary = 0;
    for (; value; value >>= 1)
        binary ^= value;
    return binary;
}

double
QamConstellation::mapAxis(std::uint32_t bits, unsigned axis_bits) const
{
    // Incoming bits are the Gray label; recover the level index.
    std::uint32_t level = grayToBinary(bits);
    double levels = std::pow(2.0, static_cast<double>(axis_bits));
    return _scale * (2.0 * static_cast<double>(level) - (levels - 1.0));
}

std::uint32_t
QamConstellation::sliceAxis(double amplitude, unsigned axis_bits) const
{
    double levels = std::pow(2.0, static_cast<double>(axis_bits));
    double index = (amplitude / _scale + (levels - 1.0)) / 2.0;
    auto level = static_cast<std::int64_t>(std::llround(index));
    level = std::clamp<std::int64_t>(level, 0,
                                     static_cast<std::int64_t>(levels) - 1);
    return binaryToGray(static_cast<std::uint32_t>(level));
}

std::pair<double, double>
QamConstellation::modulate(std::uint32_t symbol_bits) const
{
    MINDFUL_ASSERT(symbol_bits < (1u << _bits),
                   "symbol value exceeds constellation");
    std::uint32_t i_bits = symbol_bits >> _qBits;
    std::uint32_t q_bits = symbol_bits & ((1u << _qBits) - 1u);
    double i = mapAxis(i_bits, _iBits);
    double q = _qBits ? mapAxis(q_bits, _qBits) : 0.0;
    return {i, q};
}

std::uint32_t
QamConstellation::demodulate(double i, double q) const
{
    std::uint32_t i_bits = sliceAxis(i, _iBits);
    std::uint32_t q_bits = _qBits ? sliceAxis(q, _qBits) : 0;
    return (i_bits << _qBits) | q_bits;
}

double
QamConstellation::meanSymbolEnergy() const
{
    return static_cast<double>(_bits);
}

AwgnChannelSimulator::AwgnChannelSimulator(unsigned bits_per_symbol,
                                           std::uint64_t seed)
    : _constellation(bits_per_symbol), _rng(seed)
{
}

BerMeasurement
AwgnChannelSimulator::measureBer(double eb_n0_linear, std::uint64_t symbols)
{
    MINDFUL_ASSERT(eb_n0_linear > 0.0, "Eb/N0 must be positive");
    MINDFUL_ASSERT(symbols > 0, "need at least one symbol");

    const unsigned k = _constellation.bitsPerSymbol();
    // Eb = 1 by construction, so N0 = 1 / (Eb/N0); per-axis noise
    // variance is N0 / 2.
    const double sigma = std::sqrt(0.5 / eb_n0_linear);

    MINDFUL_TRACE_SPAN(span, "comm", "qam.measure_ber");
    span.arg("bits_per_symbol", static_cast<std::uint64_t>(k))
        .arg("ebn0_db", toDecibels(eb_n0_linear))
        .arg("symbols", symbols);

    // Sharded Monte-Carlo: shard s simulates its fixed symbol range
    // on the independent stream fork(call * kBerShards + s). Error
    // counts are integers summed in shard order, so the reduction is
    // exact and order-independent — bit-identical on any thread
    // count (docs/parallelism.md).
    const std::uint64_t call = _calls++;
    // Shard instrumentation: site and handles resolved once,
    // recorded lock-free inside the shard body (docs/observability.md).
    static const obs::TraceSite shard_site =
        obs::TraceCollector::global().site("comm", "qam.ber_shard");
    static const obs::CounterHandle shard_symbols =
        obs::MetricRegistry::global().counter("comm.qam.shard_symbols");
    std::vector<std::uint64_t> shard_errors(kBerShards, 0);
    exec::parallelFor(
        kBerShards,
        [&](std::size_t shard) {
            obs::HotSpan shard_span(shard_site);
            const auto range =
                exec::shardRange(symbols, kBerShards, shard);
            Rng rng = _rng.fork(call * kBerShards + shard);
            std::uint64_t errors = 0;
            for (std::uint64_t s = range.begin; s < range.end; ++s) {
                auto tx_bits = static_cast<std::uint32_t>(
                    rng.uniformInt(0, (1 << k) - 1));
                auto [i, q] = _constellation.modulate(tx_bits);
                i += rng.gaussian(0.0, sigma);
                q += rng.gaussian(0.0, sigma);
                std::uint32_t rx_bits = _constellation.demodulate(i, q);
                errors += static_cast<std::uint64_t>(
                    std::popcount(tx_bits ^ rx_bits));
            }
            shard_errors[shard] = errors;
            shard_span.setArg(errors);
            shard_symbols.bump(range.end - range.begin);
        },
        "comm.qam.ber_shard");

    BerMeasurement measurement;
    measurement.bitsSent = symbols * k;
    for (std::uint64_t errors : shard_errors)
        measurement.bitErrors += errors;

    // Publish per-call aggregates (never per-symbol: recording inside
    // the loop would dominate the Monte-Carlo cost).
    MINDFUL_METRIC_COUNT("comm.qam.symbols", symbols);
    MINDFUL_METRIC_COUNT("comm.qam.bits_sent", measurement.bitsSent);
    MINDFUL_METRIC_COUNT("comm.qam.bit_errors", measurement.bitErrors);
    // 1 uniformInt + 2 gaussians per symbol.
    MINDFUL_METRIC_COUNT("comm.qam.rng_draws", 3 * symbols);
    // The per-Eb/N0 metric names are formatted once per call.
    const std::string db = formatDb(eb_n0_linear);
    MINDFUL_METRIC_COUNT("comm.qam.ebn0_" + db + "db.bits_sent",
                         measurement.bitsSent);
    MINDFUL_METRIC_COUNT("comm.qam.ebn0_" + db + "db.bit_errors",
                         measurement.bitErrors);
    span.arg("bit_errors", measurement.bitErrors);
    return measurement;
}

OokChannelSimulator::OokChannelSimulator(std::uint64_t seed) : _rng(seed)
{
}

BerMeasurement
OokChannelSimulator::measureBer(double eb_n0_linear, std::uint64_t bits)
{
    MINDFUL_ASSERT(eb_n0_linear > 0.0, "Eb/N0 must be positive");
    MINDFUL_ASSERT(bits > 0, "need at least one bit");

    // Mark amplitude A with E[energy/bit] = A^2 / 2 = Eb = 1, so
    // A = sqrt(2); per-sample noise variance N0 / 2 = 1 / (2 Eb/N0).
    const double amplitude = std::sqrt(2.0);
    const double sigma = std::sqrt(0.5 / eb_n0_linear);
    const double threshold = amplitude / 2.0;

    MINDFUL_TRACE_SPAN(span, "comm", "ook.measure_ber");
    span.arg("ebn0_db", toDecibels(eb_n0_linear)).arg("bits", bits);

    // Same sharded decomposition as the QAM simulator: fixed shard
    // count, per-shard forked streams, exact integer reduction in
    // shard order — bit-identical on any thread count.
    const std::uint64_t call = _calls++;
    // Same shard instrumentation as the QAM path.
    static const obs::TraceSite shard_site =
        obs::TraceCollector::global().site("comm", "ook.ber_shard");
    static const obs::CounterHandle shard_bits =
        obs::MetricRegistry::global().counter("comm.ook.shard_bits");
    std::vector<std::uint64_t> shard_errors(kBerShards, 0);
    exec::parallelFor(
        kBerShards,
        [&](std::size_t shard) {
            obs::HotSpan shard_span(shard_site);
            const auto range = exec::shardRange(bits, kBerShards, shard);
            Rng rng = _rng.fork(call * kBerShards + shard);
            std::uint64_t errors = 0;
            for (std::uint64_t i = range.begin; i < range.end; ++i) {
                bool tx = rng.bernoulli(0.5);
                double rx =
                    (tx ? amplitude : 0.0) + rng.gaussian(0.0, sigma);
                bool decoded = rx > threshold;
                errors += decoded != tx;
            }
            shard_errors[shard] = errors;
            shard_span.setArg(errors);
            shard_bits.bump(range.end - range.begin);
        },
        "comm.ook.ber_shard");

    BerMeasurement measurement;
    measurement.bitsSent = bits;
    for (std::uint64_t errors : shard_errors)
        measurement.bitErrors += errors;

    MINDFUL_METRIC_COUNT("comm.ook.bits_sent", bits);
    MINDFUL_METRIC_COUNT("comm.ook.bit_errors", measurement.bitErrors);
    // 1 bernoulli + 1 gaussian per bit.
    MINDFUL_METRIC_COUNT("comm.ook.rng_draws", 2 * bits);
    MINDFUL_METRIC_COUNT("comm.ook.ebn0_" + formatDb(eb_n0_linear) +
                             "db.bit_errors",
                         measurement.bitErrors);
    span.arg("bit_errors", measurement.bitErrors);
    return measurement;
}

} // namespace mindful::comm
