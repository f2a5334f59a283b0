#include "signal/filters.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <numbers>

#include "base/logging.hh"

namespace mindful::signal {

Biquad::Biquad() : _b0(1.0), _b1(0.0), _b2(0.0), _a1(0.0), _a2(0.0)
{
}

Biquad::Biquad(double b0, double b1, double b2, double a0, double a1,
               double a2)
{
    MINDFUL_ASSERT(a0 != 0.0, "biquad a0 must be non-zero");
    _b0 = b0 / a0;
    _b1 = b1 / a0;
    _b2 = b2 / a0;
    _a1 = a1 / a0;
    _a2 = a2 / a0;
}

namespace {

struct RbjParams
{
    double w0;
    double cosw;
    double sinw;
    double alpha;
};

RbjParams
rbj(Frequency f, Frequency fs, double q)
{
    MINDFUL_ASSERT(f.inHertz() > 0.0 && f.inHertz() < fs.inHertz() / 2.0,
                   "filter frequency must lie in (0, fs/2): f = ",
                   f.inHertz(), " Hz, fs = ", fs.inHertz(), " Hz");
    MINDFUL_ASSERT(q > 0.0, "filter Q must be positive");
    RbjParams p;
    p.w0 = 2.0 * std::numbers::pi * f.inHertz() / fs.inHertz();
    p.cosw = std::cos(p.w0);
    p.sinw = std::sin(p.w0);
    p.alpha = p.sinw / (2.0 * q);
    return p;
}

} // namespace

Biquad
Biquad::lowPass(Frequency cutoff, Frequency sampling, double q)
{
    auto p = rbj(cutoff, sampling, q);
    return Biquad((1.0 - p.cosw) / 2.0, 1.0 - p.cosw, (1.0 - p.cosw) / 2.0,
                  1.0 + p.alpha, -2.0 * p.cosw, 1.0 - p.alpha);
}

Biquad
Biquad::highPass(Frequency cutoff, Frequency sampling, double q)
{
    auto p = rbj(cutoff, sampling, q);
    return Biquad((1.0 + p.cosw) / 2.0, -(1.0 + p.cosw),
                  (1.0 + p.cosw) / 2.0, 1.0 + p.alpha, -2.0 * p.cosw,
                  1.0 - p.alpha);
}

double
Biquad::step(double x)
{
    double y = _b0 * x + _b1 * _x1 + _b2 * _x2 - _a1 * _y1 - _a2 * _y2;
    _x2 = _x1;
    _x1 = x;
    _y2 = _y1;
    _y1 = y;
    return y;
}

void
Biquad::reset()
{
    _x1 = _x2 = _y1 = _y2 = 0.0;
}

double
Biquad::magnitudeAt(Frequency freq, Frequency sampling) const
{
    using namespace std::complex_literals;
    double w = 2.0 * std::numbers::pi * freq.inHertz() / sampling.inHertz();
    std::complex<double> z = std::exp(-1i * w);
    std::complex<double> num = _b0 + _b1 * z + _b2 * z * z;
    std::complex<double> den = 1.0 + _a1 * z + _a2 * z * z;
    return std::abs(num / den);
}

double
BiquadCascade::step(double x)
{
    for (auto &section : _sections)
        x = section.step(x);
    return x;
}

void
BiquadCascade::reset()
{
    for (auto &section : _sections)
        section.reset();
}

namespace {

/** One section's coefficients and delay line, held in locals for a pass. */
struct SectionState
{
    double b0, b1, b2, a1, a2;
    double x1, x2, y1, y2;
};

} // namespace

template <std::size_t N>
void
BiquadCascade::filterBlock(Biquad *sections, double *data, std::size_t n)
{
    std::array<SectionState, N> s;
    for (std::size_t k = 0; k < N; ++k) {
        const Biquad &b = sections[k];
        s[k] = {b._b0, b._b1, b._b2, b._a1, b._a2,
                b._x1, b._x2, b._y1, b._y2};
    }
    for (std::size_t i = 0; i < n; ++i) {
        double x = data[i];
        for (SectionState &q : s) {
            double y = q.b0 * x + q.b1 * q.x1 + q.b2 * q.x2 - q.a1 * q.y1 -
                       q.a2 * q.y2;
            q.x2 = q.x1;
            q.x1 = x;
            q.y2 = q.y1;
            q.y1 = y;
            x = y;
        }
        data[i] = x;
    }
    for (std::size_t k = 0; k < N; ++k) {
        Biquad &b = sections[k];
        b._x1 = s[k].x1;
        b._x2 = s[k].x2;
        b._y1 = s[k].y1;
        b._y2 = s[k].y2;
    }
}

std::vector<double>
BiquadCascade::apply(const std::vector<double> &input)
{
    std::vector<double> out = input;
    // Four sections per pass (the spike band is one pass), then one.
    for (std::size_t first = 0; first < _sections.size();) {
        if (_sections.size() - first >= 4) {
            filterBlock<4>(&_sections[first], out.data(), out.size());
            first += 4;
        } else {
            filterBlock<1>(&_sections[first], out.data(), out.size());
            first += 1;
        }
    }
    return out;
}

BiquadCascade
BiquadCascade::spikeBand(Frequency sampling, Frequency low, Frequency high)
{
    BiquadCascade cascade;
    // Two cascaded 2nd-order sections at each edge give 4th-order
    // rolloff; butterworth Q pairing (0.5412, 1.3066).
    cascade.append(Biquad::highPass(low, sampling, 0.5412));
    cascade.append(Biquad::highPass(low, sampling, 1.3066));
    cascade.append(Biquad::lowPass(high, sampling, 0.5412));
    cascade.append(Biquad::lowPass(high, sampling, 1.3066));
    return cascade;
}

} // namespace mindful::signal
