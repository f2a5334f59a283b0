#include "comm/modulation.hh"

#include <cmath>

#include "base/logging.hh"
#include "base/special_math.hh"

namespace mindful::comm {

namespace {

/**
 * Rectangular Gray-QAM decomposition: k bits split ceil(k/2) onto the
 * I axis and floor(k/2) onto the Q axis. For even k this reduces to
 * the familiar square-QAM expressions; for k == 1 it reduces to BPSK.
 */
struct AxisSplit
{
    double mi; //!< I-axis PAM levels
    double mq; //!< Q-axis PAM levels (1 when unused)
};

AxisSplit
axisSplit(unsigned k)
{
    unsigned ki = (k + 1) / 2;
    unsigned kq = k / 2;
    return {std::pow(2.0, static_cast<double>(ki)),
            std::pow(2.0, static_cast<double>(kq))};
}

/** Leading coefficient of the Gray-coded QAM BER approximation. */
double
berCoefficient(unsigned k)
{
    auto [mi, mq] = axisSplit(k);
    return (2.0 * (1.0 - 1.0 / mi) + 2.0 * (1.0 - 1.0 / mq)) /
           static_cast<double>(k);
}

/** Argument scale inside the Q-function: sqrt(scale * Eb/N0). */
double
berArgumentScale(unsigned k)
{
    auto [mi, mq] = axisSplit(k);
    // Mean symbol energy of unit-spacing rectangular QAM is
    // (mi^2 + mq^2 - 2) / 3 per 2-level spacing; the half-distance
    // argument then carries 6k / (mi^2 + mq^2 - 2).
    return 6.0 * static_cast<double>(k) / (mi * mi + mq * mq - 2.0);
}

} // namespace

double
ookBitErrorRate(double eb_n0_linear)
{
    MINDFUL_ASSERT(eb_n0_linear >= 0.0, "Eb/N0 must be non-negative");
    return qFunction(std::sqrt(eb_n0_linear));
}

double
ookRequiredEbN0(double target_ber)
{
    MINDFUL_ASSERT(target_ber > 0.0 && target_ber < 0.5,
                   "target BER must lie in (0, 0.5)");
    double arg = qFunctionInverse(target_ber);
    return arg * arg;
}

double
qamBitErrorRate(unsigned bits_per_symbol, double eb_n0_linear)
{
    MINDFUL_ASSERT(bits_per_symbol >= 1, "need at least 1 bit per symbol");
    MINDFUL_ASSERT(eb_n0_linear >= 0.0, "Eb/N0 must be non-negative");
    double arg = std::sqrt(berArgumentScale(bits_per_symbol) * eb_n0_linear);
    return berCoefficient(bits_per_symbol) * qFunction(arg);
}

double
qamRequiredEbN0(unsigned bits_per_symbol, double target_ber)
{
    MINDFUL_ASSERT(bits_per_symbol >= 1, "need at least 1 bit per symbol");
    MINDFUL_ASSERT(target_ber > 0.0 && target_ber < 0.5,
                   "target BER must lie in (0, 0.5)");
    double coeff = berCoefficient(bits_per_symbol);
    double q_target = target_ber / coeff;
    MINDFUL_ASSERT(q_target < 1.0, "unreachable BER target");
    double arg = qFunctionInverse(q_target);
    return arg * arg / berArgumentScale(bits_per_symbol);
}

double
shannonMinimumEbN0(double bits_per_symbol)
{
    MINDFUL_ASSERT(bits_per_symbol > 0.0,
                   "spectral efficiency must be positive");
    return (std::pow(2.0, bits_per_symbol) - 1.0) / bits_per_symbol;
}

OokModulation::OokModulation(EnergyPerBit energy_per_bit,
                             DataRate max_data_rate)
    : _energyPerBit(energy_per_bit), _maxDataRate(max_data_rate)
{
    MINDFUL_ASSERT(energy_per_bit.inJoulesPerBit() > 0.0,
                   "OOK energy per bit must be positive");
    MINDFUL_ASSERT(max_data_rate.inBitsPerSecond() > 0.0,
                   "OOK max data rate must be positive");
}

bool
OokModulation::supports(DataRate rate) const
{
    return rate <= _maxDataRate;
}

Power
OokModulation::transmitPower(DataRate rate) const
{
    if (!supports(rate)) {
        MINDFUL_FATAL("OOK transceiver supports at most ",
                      _maxDataRate.inMegabitsPerSecond(), " Mbps, asked for ",
                      rate.inMegabitsPerSecond(), " Mbps");
    }
    return rate * _energyPerBit;
}

QamModulation::QamModulation(unsigned bits_per_symbol)
    : _bitsPerSymbol(bits_per_symbol)
{
    MINDFUL_ASSERT(bits_per_symbol >= 1 &&
                       bits_per_symbol <= kMaxQamBitsPerSymbol,
                   "bits per symbol must lie in [1, ",
                   kMaxQamBitsPerSymbol, "]");
}

double
QamModulation::bitErrorRate(double eb_n0_linear) const
{
    return qamBitErrorRate(_bitsPerSymbol, eb_n0_linear);
}

double
QamModulation::requiredEbN0(double target_ber) const
{
    return qamRequiredEbN0(_bitsPerSymbol, target_ber);
}

DataRate
QamModulation::bitRate(Frequency symbol_rate) const
{
    return symbol_rate * static_cast<double>(_bitsPerSymbol);
}

} // namespace mindful::comm
