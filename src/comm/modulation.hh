/**
 * @file
 * Modulation-scheme models: OOK and M-ary QAM (paper Secs. 5.1-5.2).
 *
 * OOK carries 1 bit per symbol at a constant, transceiver-specific
 * energy per bit — the energy-efficient scheme today's implants use.
 * M-QAM carries k = log2(M) bits per symbol within the same antenna
 * bandwidth, at an energy per bit that grows with k according to the
 * Gray-coded QAM bit-error-rate equation
 *
 *     BER(k, Eb/N0) ~= (4/k) (1 - 2^(-k/2)) Q( sqrt(3k/(M-1) Eb/N0) )
 *
 * which this module evaluates and inverts. Shannon's limit provides
 * the sanity floor on any required Eb/N0.
 */

#ifndef MINDFUL_COMM_MODULATION_HH
#define MINDFUL_COMM_MODULATION_HH

#include <cstdint>

#include "base/units.hh"

namespace mindful::comm {

/**
 * Coherent on-off-keying BER at a linear Eb/N0 (optimal threshold):
 * BER = Q(sqrt(Eb/N0)). OOK pays ~3 dB against antipodal BPSK, which
 * is the price implants accept for the simple transmitter.
 */
double ookBitErrorRate(double eb_n0_linear);

/** Inverse of ookBitErrorRate in Eb/N0. */
double ookRequiredEbN0(double target_ber);

/** Gray-coded M-QAM approximation of BER at a linear Eb/N0.
 *
 * @param bits_per_symbol k >= 1 (k == 1 degenerates to BPSK/OOK).
 * @param eb_n0_linear    received Eb/N0 as a linear ratio.
 */
double qamBitErrorRate(unsigned bits_per_symbol, double eb_n0_linear);

/**
 * Inverse of qamBitErrorRate in Eb/N0: the minimum linear Eb/N0 at
 * which the scheme achieves @p target_ber.
 */
double qamRequiredEbN0(unsigned bits_per_symbol, double target_ber);

/**
 * Shannon's minimum Eb/N0 (linear) for reliable communication at
 * spectral efficiency @p bits_per_symbol bits/s/Hz:
 *
 *     Eb/N0 >= (2^eta - 1) / eta
 */
double shannonMinimumEbN0(double bits_per_symbol);

/** Constant-Eb OOK transmitter model (Eq. 9). */
class OokModulation
{
  public:
    /**
     * @param energy_per_bit transceiver's customized Eb.
     * @param max_data_rate  highest rate the design supports while
     *        holding Eb constant (the antenna/transceiver limit).
     */
    OokModulation(EnergyPerBit energy_per_bit, DataRate max_data_rate);

    EnergyPerBit energyPerBit() const { return _energyPerBit; }
    DataRate maxDataRate() const { return _maxDataRate; }

    /** True if the transceiver can carry @p rate at constant Eb. */
    bool supports(DataRate rate) const;

    /** Pcomm = rate * Eb (Eq. 9); fatal when unsupported. */
    Power transmitPower(DataRate rate) const;

  private:
    EnergyPerBit _energyPerBit;
    DataRate _maxDataRate;
};

/** Densest QAM mode modelled: 2^16-point constellations. */
constexpr unsigned kMaxQamBitsPerSymbol = 16;

/** One M-QAM operating mode (fixed bits per symbol). */
class QamModulation
{
  public:
    explicit QamModulation(unsigned bits_per_symbol);

    unsigned bitsPerSymbol() const { return _bitsPerSymbol; }
    std::uint64_t constellationSize() const { return 1ull << _bitsPerSymbol; }

    double bitErrorRate(double eb_n0_linear) const;
    double requiredEbN0(double target_ber) const;

    /** Bit rate carried at @p symbol_rate symbols/s. */
    DataRate bitRate(Frequency symbol_rate) const;

  private:
    unsigned _bitsPerSymbol;
};

} // namespace mindful::comm

#endif // MINDFUL_COMM_MODULATION_HH
