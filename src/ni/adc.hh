/**
 * @file
 * Analog-to-digital conversion model for neural front-ends.
 *
 * Every channel of a neural interface digitizes its analog signal at
 * sampling frequency f with a sample bitwidth d; those two numbers
 * drive the sensing throughput (Eq. 6) that the rest of the implant
 * must keep up with. This model also performs actual quantization so
 * the end-to-end examples can push realistic integer samples through
 * the pipeline.
 */

#ifndef MINDFUL_NI_ADC_HH
#define MINDFUL_NI_ADC_HH

#include <cstdint>
#include <vector>

#include "base/units.hh"

namespace mindful::ni {

/** Widest sample bitwidth d an AdcModel accepts (codes fit 16 bits). */
inline constexpr unsigned kMaxAdcBits = 16;

/** Mid-rise uniform quantizer with saturation. */
class AdcModel
{
  public:
    /**
     * @param bits sample bitwidth d (1..kMaxAdcBits).
     * @param full_scale_uv symmetric input range [-FS, +FS] in uV.
     * @param sampling per-channel sampling frequency f.
     */
    AdcModel(unsigned bits, double full_scale_uv, Frequency sampling);

    unsigned bits() const { return _bits; }
    double fullScaleMicrovolts() const { return _fullScale; }
    Frequency samplingFrequency() const { return _sampling; }

    /** Smallest representable step in uV. */
    double lsbMicrovolts() const;

    /** Largest code value (2^d - 1). */
    std::uint32_t maxCode() const { return (1u << _bits) - 1; }

    /** Code of a 0 uV input (2^(d-1)), the bin just above mid-scale. */
    std::uint32_t midCode() const { return 1u << (_bits - 1); }

    /**
     * Quantize one sample (uV) to an unsigned code, saturating: -inf
     * gives 0, +inf maxCode(), and NaN midCode(), the code of 0 uV.
     */
    std::uint32_t quantize(double microvolts) const;

    /** Reconstruct the analog value (uV) at a code's bin centre. */
    double dequantize(std::uint32_t code) const;

    /** Quantize a whole buffer, each sample as quantize(double). */
    std::vector<std::uint32_t>
    quantize(const std::vector<double> &microvolts) const;

    /**
     * Per-channel digitized output rate d * f — the building block of
     * the sensing throughput in Eq. 6.
     */
    DataRate perChannelRate() const;

  private:
    unsigned _bits;
    double _fullScale;
    Frequency _sampling;
};

} // namespace mindful::ni

#endif // MINDFUL_NI_ADC_HH
