/**
 * @file
 * The input-dropout plan DenseLayer and Conv2dLayer share (paper
 * Sec. 6.2, channel dropout executed as skipped compute instead of a
 * rebuilt smaller model).
 *
 * An input unit is one weight column and one input value of a dense
 * layer, or kh * kw weight columns and one input plane of a conv
 * channel. The plan keeps the surviving units in ascending order and
 * packs their weight columns once, when the mask is installed; a
 * forward copies the matching input values into a compact buffer and
 * runs the ordinary biasGemm at the reduced k.
 */

#ifndef MINDFUL_DNN_DROPOUT_HH
#define MINDFUL_DNN_DROPOUT_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace mindful::dnn {

/** The surviving input units of one mask and their packed weights. */
class DropoutPlan
{
  public:
    /**
     * Plan for @p mask (one entry per input unit, non-zero = active),
     * or none when the mask is empty or keeps every unit.
     */
    static std::optional<DropoutPlan>
    fromMask(const std::vector<std::uint8_t> &mask)
    {
        if (std::all_of(mask.begin(), mask.end(),
                        [](std::uint8_t v) { return v != 0; }))
            return std::nullopt;
        DropoutPlan plan;
        plan._unitCount = mask.size();
        for (std::size_t u = 0; u < mask.size(); ++u)
            if (mask[u] != 0)
                plan._units.push_back(static_cast<std::uint32_t>(u));
        return plan;
    }

    /**
     * Pack the surviving units' columns of the rows x (units * @p width)
     * row-major matrix @p a, @p width columns per unit, into a dense
     * rows x (activeUnits() * width) matrix, units in ascending order.
     *
     * Exactness: the packed GEMM skips the terms whose input factor is
     * a dropped (zero) value. An IEEE-754 add of ±0 only changes an
     * accumulator that is itself exactly -0.0 (then -0 + (+0) = +0),
     * which cannot arise from finite, non-zero data — so the output is
     * bit-identical to the unmasked reference over the zero-masked
     * input for the golden tests' random data and any realistic signal
     * (docs/performance.md, "Channel-dropout structured sparsity").
     */
    void pack(const float *a, std::size_t rows, std::size_t width)
    {
        _weights.resize(rows * _units.size() * width);
        float *dst = _weights.data();
        for (std::size_t row = 0; row < rows; ++row) {
            const float *arow = a + row * _unitCount * width;
            for (const std::uint32_t u : _units)
                dst = std::copy(arow + u * width, arow + (u + 1) * width,
                                dst);
        }
    }

    /** Surviving unit count: the reduced k is this times the width. */
    std::size_t activeUnits() const { return _units.size(); }

    /** The packed matrix of the last pack(). */
    const float *weights() const { return _weights.data(); }

    /**
     * Copy the surviving units of @p x, @p len values each, to @p out
     * in ascending unit order: activeUnits() * len values.
     */
    void gather(const float *x, std::size_t len, float *out) const
    {
        // Dense features are one value each, and a std::copy per value
        // compiles to a memmove call per value: ~10% of a half-kept
        // 1024 -> 768 forward.
        if (len == 1) {
            for (const std::uint32_t u : _units)
                *out++ = x[u];
            return;
        }
        for (const std::uint32_t u : _units)
            out = std::copy(x + u * len, x + (u + 1) * len, out);
    }

  private:
    std::size_t _unitCount = 0;
    std::vector<std::uint32_t> _units;
    std::vector<float> _weights;
};

} // namespace mindful::dnn

#endif // MINDFUL_DNN_DROPOUT_HH
