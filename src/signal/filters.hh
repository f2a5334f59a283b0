/**
 * @file
 * Digital filters for neural-signal conditioning.
 *
 * Implanted front-ends band-split the raw trace into a spike band
 * (~300 Hz - 3 kHz) and an LFP band (< ~300 Hz) before any feature
 * extraction. This module provides RBJ-cookbook biquad sections and
 * a cascade container — enough to build the standard neural
 * preprocessing chains used by the examples and the spike detector.
 */

#ifndef MINDFUL_SIGNAL_FILTERS_HH
#define MINDFUL_SIGNAL_FILTERS_HH

#include <cstddef>
#include <vector>

#include "base/units.hh"

namespace mindful::signal {

/**
 * Direct-form-I biquad (two poles, two zeros), normalized a0 = 1.
 */
class Biquad
{
  public:
    /** Identity (pass-through) section. */
    Biquad();

    /** Raw coefficients; a0 must be non-zero and is normalized out. */
    Biquad(double b0, double b1, double b2, double a0, double a1, double a2);

    /** RBJ cookbook designs. @p q is the section quality factor. */
    static Biquad lowPass(Frequency cutoff, Frequency sampling,
                          double q = 0.7071);
    static Biquad highPass(Frequency cutoff, Frequency sampling,
                           double q = 0.7071);

    /** Process one sample, updating internal state. */
    double step(double x);

    /** Reset the delay line to zero. */
    void reset();

    /** Magnitude response |H(e^{jw})| at @p freq. */
    double magnitudeAt(Frequency freq, Frequency sampling) const;

  private:
    // BiquadCascade::apply runs its sections on local copies of these.
    friend class BiquadCascade;

    double _b0, _b1, _b2, _a1, _a2;
    double _x1 = 0.0, _x2 = 0.0, _y1 = 0.0, _y2 = 0.0;
};

/** Cascade of biquad sections applied in series. */
class BiquadCascade
{
  public:
    BiquadCascade() = default;
    explicit BiquadCascade(std::vector<Biquad> sections)
        : _sections(std::move(sections))
    {
    }

    void append(Biquad section) { _sections.push_back(section); }

    double step(double x);
    void reset();

    /** Filter a whole buffer (stateful; call reset() between traces). */
    std::vector<double> apply(const std::vector<double> &input);

    std::size_t sections() const { return _sections.size(); }

    /**
     * Standard neural spike-band chain: 2 high-pass + 2 low-pass
     * butterworth-q biquads (4th-order band edges).
     */
    static BiquadCascade spikeBand(Frequency sampling,
                                   Frequency low = Frequency::hertz(300),
                                   Frequency high =
                                       Frequency::kilohertz(3.0));

  private:
    /**
     * Run the @p N sections from @p sections in series over @p data in
     * place. Their coefficients and delay lines sit in locals for the
     * pass, so each recurrence stays in registers, and each section
     * computes Biquad::step's expression in its order: the output is
     * bitwise that of stepping.
     */
    template <std::size_t N>
    static void filterBlock(Biquad *sections, double *data, std::size_t n);

    std::vector<Biquad> _sections;
};

} // namespace mindful::signal

#endif // MINDFUL_SIGNAL_FILTERS_HH
