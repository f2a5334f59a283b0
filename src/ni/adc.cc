#include "ni/adc.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace mindful::ni {

AdcModel::AdcModel(unsigned bits, double full_scale_uv, Frequency sampling)
    : _bits(bits), _fullScale(full_scale_uv), _sampling(sampling)
{
    MINDFUL_ASSERT(bits >= 1 && bits <= kMaxAdcBits,
                   "ADC bitwidth must be in [1, ", kMaxAdcBits, "], got ",
                   bits);
    MINDFUL_ASSERT(full_scale_uv > 0.0, "ADC full scale must be positive");
    // The span [-FS, +FS] scales every code; past DBL_MAX / 2 it is
    // inf, and 0 uV would no longer read the mid code.
    MINDFUL_ASSERT(std::isfinite(2.0 * full_scale_uv),
                   "ADC full-scale span must be finite, got FS = ",
                   full_scale_uv, " uV");
    MINDFUL_ASSERT(sampling.inHertz() > 0.0,
                   "ADC sampling frequency must be positive");
}

double
AdcModel::lsbMicrovolts() const
{
    return 2.0 * _fullScale / static_cast<double>(1u << _bits);
}

std::uint32_t
AdcModel::quantize(double microvolts) const
{
    // std::clamp passes NaN through, and casting NaN to an integer is
    // undefined; a NaN sample reads as zero input.
    if (std::isnan(microvolts))
        return midCode();
    // After the clamp, (clamped + FS) / 2FS lies in [0, 1], so the
    // scaled value is finite and non-negative: truncation is floor,
    // without the libm call.
    double clamped = std::clamp(microvolts, -_fullScale, _fullScale);
    double normalized = (clamped + _fullScale) / (2.0 * _fullScale);
    auto code = static_cast<std::uint32_t>(
        normalized * static_cast<double>(1u << _bits));
    return std::min(code, maxCode());
}

double
AdcModel::dequantize(std::uint32_t code) const
{
    double step = lsbMicrovolts();
    return -_fullScale + (static_cast<double>(code) + 0.5) * step;
}

std::vector<std::uint32_t>
AdcModel::quantize(const std::vector<double> &microvolts) const
{
    std::vector<std::uint32_t> codes(microvolts.size());
    for (std::size_t i = 0; i < codes.size(); ++i)
        codes[i] = quantize(microvolts[i]);
    return codes;
}

DataRate
AdcModel::perChannelRate() const
{
    return _sampling * static_cast<double>(_bits);
}

} // namespace mindful::ni
