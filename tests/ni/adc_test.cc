/**
 * @file
 * ADC quantizer tests, including a parameterized bitwidth sweep.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "ni/adc.hh"

namespace mindful::ni {
namespace {

AdcModel
makeAdc(unsigned bits)
{
    return AdcModel(bits, 1000.0, Frequency::kilohertz(8.0));
}

TEST(AdcTest, CodeRangeAndLsb)
{
    AdcModel adc = makeAdc(10);
    EXPECT_EQ(adc.maxCode(), 1023u);
    EXPECT_NEAR(adc.lsbMicrovolts(), 2000.0 / 1024.0, 1e-12);
}

TEST(AdcTest, MidScaleMapsToMidCode)
{
    AdcModel adc = makeAdc(10);
    EXPECT_EQ(adc.quantize(0.0), 512u);
}

TEST(AdcTest, SaturatesAtRails)
{
    AdcModel adc = makeAdc(10);
    EXPECT_EQ(adc.quantize(5000.0), 1023u);
    EXPECT_EQ(adc.quantize(-5000.0), 0u);
    EXPECT_EQ(adc.quantize(1000.0), 1023u);
    EXPECT_EQ(adc.quantize(-1000.0), 0u);
}

TEST(AdcTest, MonotoneCodes)
{
    AdcModel adc = makeAdc(8);
    std::uint32_t prev = 0;
    for (double v = -1000.0; v <= 1000.0; v += 7.3) {
        std::uint32_t code = adc.quantize(v);
        EXPECT_GE(code, prev);
        prev = code;
    }
}

TEST(AdcTest, PerChannelRateIsBitsTimesSampling)
{
    AdcModel adc = makeAdc(10);
    EXPECT_NEAR(adc.perChannelRate().inBitsPerSecond(), 80000.0, 1e-9);
}

TEST(AdcTest, BufferQuantization)
{
    AdcModel adc = makeAdc(10);
    auto codes = adc.quantize(std::vector<double>{0.0, 500.0, -500.0});
    ASSERT_EQ(codes.size(), 3u);
    EXPECT_EQ(codes[0], 512u);
    EXPECT_GT(codes[1], codes[0]);
    EXPECT_LT(codes[2], codes[0]);
}

TEST(AdcTest, NonFiniteInputsMapToDocumentedCodes)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const unsigned bits : {1u, 10u, 16u}) {
        AdcModel adc = makeAdc(bits);
        EXPECT_EQ(adc.midCode(), adc.quantize(0.0)) << "bits=" << bits;
        EXPECT_EQ(adc.quantize(nan), adc.midCode()) << "bits=" << bits;
        EXPECT_EQ(adc.quantize(-nan), adc.midCode()) << "bits=" << bits;
        EXPECT_EQ(adc.quantize(inf), adc.maxCode()) << "bits=" << bits;
        EXPECT_EQ(adc.quantize(-inf), 0u) << "bits=" << bits;
        const std::vector<std::uint32_t> codes =
            adc.quantize(std::vector<double>{nan, inf, -inf, 0.0, -nan});
        EXPECT_EQ(codes,
                  (std::vector<std::uint32_t>{adc.midCode(), adc.maxCode(),
                                              0u, adc.midCode(),
                                              adc.midCode()}))
            << "bits=" << bits;
    }
}

/** The quantizer as written with std::floor, for comparison. */
std::uint32_t
referenceQuantize(const AdcModel &adc, double microvolts)
{
    if (std::isnan(microvolts))
        return adc.midCode();
    const double fs = adc.fullScaleMicrovolts();
    const double clamped = std::clamp(microvolts, -fs, fs);
    const double normalized = (clamped + fs) / (2.0 * fs);
    const auto code = static_cast<std::int64_t>(std::floor(
        normalized * static_cast<double>(1u << adc.bits())));
    return static_cast<std::uint32_t>(
        std::clamp<std::int64_t>(code, 0, adc.maxCode()));
}

TEST(AdcTest, FloorFreeFormulaMatchesFloorReference)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double tiny = std::numeric_limits<double>::denorm_min();
    const double min_normal = std::numeric_limits<double>::min();
    for (unsigned bits = 1; bits <= kMaxAdcBits; ++bits) {
        const AdcModel adc = makeAdc(bits);
        const double fs = adc.fullScaleMicrovolts();
        // Rails, signed zeros, subnormals and the non-finite values.
        std::vector<double> inputs{fs,   -fs,  0.0,
                                   -0.0, tiny, -tiny,
                                   min_normal / 2, -min_normal / 2,
                                   nan,  -nan, inf, -inf};
        // Every bin edge k * LSB - FS and its neighbour on each side.
        for (std::uint32_t k = 0; k <= adc.maxCode() + 1; ++k) {
            const double edge =
                static_cast<double>(k) * adc.lsbMicrovolts() - fs;
            inputs.push_back(std::nextafter(edge, -inf));
            inputs.push_back(edge);
            inputs.push_back(std::nextafter(edge, inf));
        }
        const std::vector<std::uint32_t> codes = adc.quantize(inputs);
        ASSERT_EQ(codes.size(), inputs.size());
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            const std::uint32_t scalar = adc.quantize(inputs[i]);
            ASSERT_EQ(codes[i], scalar)
                << "bits=" << bits << " input=" << inputs[i];
            ASSERT_EQ(scalar, referenceQuantize(adc, inputs[i]))
                << "bits=" << bits << " input=" << inputs[i];
        }
    }
}

/** Property sweep: round-trip error is bounded by half an LSB. */
class AdcRoundTrip : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(AdcRoundTrip, QuantizeDequantizeWithinHalfLsb)
{
    AdcModel adc = makeAdc(GetParam());
    double half_lsb = adc.lsbMicrovolts() / 2.0;
    for (double v = -999.0; v <= 999.0; v += 13.7) {
        double reconstructed = adc.dequantize(adc.quantize(v));
        EXPECT_NEAR(reconstructed, v, half_lsb + 1e-9)
            << "bits=" << GetParam() << " v=" << v;
    }
}

TEST_P(AdcRoundTrip, AllCodesReachable)
{
    AdcModel adc = makeAdc(GetParam());
    // The dequantized centre of every code must map back to itself.
    for (std::uint32_t code = 0; code <= adc.maxCode(); ++code)
        EXPECT_EQ(adc.quantize(adc.dequantize(code)), code);
}

INSTANTIATE_TEST_SUITE_P(Bitwidths, AdcRoundTrip,
                         ::testing::Values(4u, 6u, 8u, 10u, 12u, 16u));

TEST(AdcDeathTest, RejectsInvalidBitwidth)
{
    EXPECT_DEATH(AdcModel(0, 1000.0, Frequency::kilohertz(8.0)),
                 "bitwidth");
    EXPECT_DEATH(AdcModel(17, 1000.0, Frequency::kilohertz(8.0)),
                 "bitwidth");
}

TEST(AdcDeathTest, RejectsFullScaleWithInfiniteSpan)
{
    // 2 * 1e308 overflows to inf: the span, and every code, is lost.
    EXPECT_DEATH(AdcModel(10, 1e308, Frequency::kilohertz(8.0)),
                 "span must be finite");
    EXPECT_DEATH(AdcModel(10, std::numeric_limits<double>::infinity(),
                          Frequency::kilohertz(8.0)),
                 "span must be finite");
}

} // namespace
} // namespace mindful::ni
