/**
 * @file
 * Catalog serialization tests: round trips, defaults, and strict
 * error reporting.
 */

#include <clocale>
#include <locale>

#include <gtest/gtest.h>

#include "core/catalog_io.hh"
#include "core/scaling.hh"
#include "core/soc_catalog.hh"

namespace mindful::core {
namespace {

const char *kMinimalEntry = R"(
# A minimal custom design.
[soc]
id = 100
name = NextGen
channels = 2048
area_mm2 = 400
power_mw = 30
sampling_khz = 10
)";

TEST(CatalogIoTest, ParsesMinimalEntryWithDefaults)
{
    auto designs = parseCatalogString(kMinimalEntry);
    ASSERT_EQ(designs.size(), 1u);
    const SocDesign &soc = designs[0];
    EXPECT_EQ(soc.id, 100);
    EXPECT_EQ(soc.name, "NextGen");
    EXPECT_EQ(soc.reportedChannels, 2048u);
    EXPECT_DOUBLE_EQ(soc.reportedArea.inSquareMillimetres(), 400.0);
    EXPECT_DOUBLE_EQ(soc.reportedPower.inMilliwatts(), 30.0);
    EXPECT_DOUBLE_EQ(soc.samplingFrequency.inKilohertz(), 10.0);
    // Defaults hold for everything unspecified.
    EXPECT_EQ(soc.sampleBits, 10u);
    EXPECT_EQ(soc.sensorType, ni::SensorType::Electrode);
    EXPECT_EQ(soc.recipe.law, ScalingLaw::SqrtAreaLinearPower);
    EXPECT_DOUBLE_EQ(soc.sensingPowerFraction, 0.5);
}

TEST(CatalogIoTest, ParsesMultipleSections)
{
    std::string text = std::string(kMinimalEntry) + R"(
[soc]
id = 101
name = SpadCam
sensor = spad
channels = 49152
base_channels = 1024
area_mm2 = 50
power_mw = 18
sampling_khz = 8
wireless = true
)";
    auto designs = parseCatalogString(text);
    ASSERT_EQ(designs.size(), 2u);
    EXPECT_EQ(designs[1].sensorType, ni::SensorType::Spad);
    EXPECT_EQ(designs[1].recipe.baseChannels, 1024u);
    EXPECT_TRUE(designs[1].wireless);
}

TEST(CatalogIoTest, BuiltInCatalogRoundTrips)
{
    auto serialized = writeCatalogString(socCatalog());
    auto reparsed = parseCatalogString(serialized);
    ASSERT_EQ(reparsed.size(), socCatalog().size());
    for (std::size_t i = 0; i < reparsed.size(); ++i) {
        const SocDesign &a = socCatalog()[i];
        const SocDesign &b = reparsed[i];
        EXPECT_EQ(a.id, b.id);
        EXPECT_EQ(a.name, b.name);
        EXPECT_EQ(a.sensorType, b.sensorType);
        EXPECT_EQ(a.reportedChannels, b.reportedChannels);
        EXPECT_NEAR(a.reportedArea.inSquareMetres(),
                    b.reportedArea.inSquareMetres(), 1e-12);
        EXPECT_NEAR(a.reportedPower.inWatts(), b.reportedPower.inWatts(),
                    1e-9);
        EXPECT_NEAR(a.samplingFrequency.inHertz(),
                    b.samplingFrequency.inHertz(), 1e-6);
        EXPECT_EQ(a.wireless, b.wireless);
        EXPECT_EQ(a.recipe.law, b.recipe.law);
        EXPECT_EQ(a.recipe.baseChannels, b.recipe.baseChannels);
        EXPECT_NEAR(a.recipe.areaCorrection, b.recipe.areaCorrection,
                    1e-9);
        EXPECT_NEAR(a.recipe.powerCorrection, b.recipe.powerCorrection,
                    1e-9);
        EXPECT_NEAR(a.sensingPowerFraction, b.sensingPowerFraction,
                    1e-9);
        EXPECT_NEAR(a.sensingAreaFraction, b.sensingAreaFraction, 1e-9);
        EXPECT_NEAR(a.commShareOfNonSensing, b.commShareOfNonSensing,
                    1e-9);
    }
}

TEST(CatalogIoTest, ReparsedDesignScalesIdentically)
{
    // The serialized form must drive the framework identically.
    auto reparsed = parseCatalogString(writeCatalogString({socById(5)}));
    ASSERT_EQ(reparsed.size(), 1u);
    auto original = scaleDesign(socById(5), 1024);
    auto copied = scaleDesign(reparsed[0], 1024);
    EXPECT_NEAR(original.power.inWatts(), copied.power.inWatts(), 1e-12);
    EXPECT_NEAR(original.area.inSquareMetres(),
                copied.area.inSquareMetres(), 1e-15);
}

TEST(CatalogIoTest, CommentsAndBlankLinesIgnored)
{
    auto designs = parseCatalogString(
        "\n# header comment\n[soc]\nid = 1\nname = X # inline\n"
        "channels = 4\narea_mm2 = 1\npower_mw = 1\nsampling_khz = 1\n\n");
    ASSERT_EQ(designs.size(), 1u);
    EXPECT_EQ(designs[0].name, "X");
}

/** A de_DE-style numpunct: ',' decimal point, '.' grouping. */
struct CommaDecimalPunct : std::numpunct<char>
{
    char do_decimal_point() const override { return ','; }
    char do_thousands_sep() const override { return '.'; }
    std::string do_grouping() const override { return "\3"; }
};

TEST(CatalogIoTest, RoundTripsUnderHostileGlobalLocale)
{
    // Force both locale mechanisms a parser or serializer could
    // accidentally depend on: the global C++ locale (which every
    // std::ostream imbues at construction) gets a comma-decimal
    // facet, and the C locale is switched best-effort (containers
    // usually only ship "C", so setlocale may be a no-op — the
    // facet is the part that is always installed).
    const std::locale saved_cpp = std::locale::global(
        std::locale(std::locale::classic(), new CommaDecimalPunct));
    const char *previous = std::setlocale(LC_ALL, nullptr);
    const std::string saved_c = previous ? previous : "C";
    std::setlocale(LC_ALL, "de_DE.UTF-8");

    // Parsing: '.' stays the decimal point, ',' stays an error.
    auto designs = parseCatalogString(
        "[soc]\nid = 7\nname = Punct\nchannels = 2048\n"
        "area_mm2 = 400.5\npower_mw = 30.25\nsampling_khz = 10\n");
    ASSERT_EQ(designs.size(), 1u);
    EXPECT_DOUBLE_EQ(designs[0].reportedArea.inSquareMillimetres(),
                     400.5);
    EXPECT_DOUBLE_EQ(designs[0].reportedPower.inMilliwatts(), 30.25);

    // Serializing: the writer pins the classic locale, so the
    // emitted text must reparse to the same catalog ("30.25",
    // never "30,25" or "2.048" channels).
    auto reparsed = parseCatalogString(writeCatalogString(designs));
    ASSERT_EQ(reparsed.size(), 1u);
    EXPECT_EQ(reparsed[0].reportedChannels, 2048u);
    EXPECT_NEAR(reparsed[0].reportedPower.inMilliwatts(), 30.25, 1e-9);

    std::setlocale(LC_ALL, saved_c.c_str());
    std::locale::global(saved_cpp);
}

TEST(CatalogIoTest, ParsesHugeChannelCountsExactly)
{
    // 2^53 + 1 is exact in uint64 but rounds to 2^53 through any
    // double-mediated integer parse.
    auto designs = parseCatalogString(
        "[soc]\nid = 8\nname = Dense\nchannels = 9007199254740993\n"
        "area_mm2 = 400\npower_mw = 30\nsampling_khz = 10\n");
    ASSERT_EQ(designs.size(), 1u);
    EXPECT_EQ(designs[0].reportedChannels, 9007199254740993ull);

    auto reparsed = parseCatalogString(writeCatalogString(designs));
    ASSERT_EQ(reparsed.size(), 1u);
    EXPECT_EQ(reparsed[0].reportedChannels, 9007199254740993ull);
}

TEST(CatalogIoDeathTest, TrailingJunkIsFatal)
{
    // std::stod would have silently accepted "12.5mm2" as 12.5.
    EXPECT_EXIT(parseCatalogString("[soc]\narea_mm2 = 12.5mm2\n"),
                ::testing::ExitedWithCode(1), "not a number");
}

TEST(CatalogIoDeathTest, NonFiniteNumberIsFatal)
{
    EXPECT_EXIT(parseCatalogString("[soc]\npower_mw = inf\n"),
                ::testing::ExitedWithCode(1), "not a number");
}

TEST(CatalogIoDeathTest, UnknownKeyIsFatal)
{
    EXPECT_EXIT(parseCatalogString("[soc]\nbogus_key = 1\n"),
                ::testing::ExitedWithCode(1), "unknown key 'bogus_key'");
}

TEST(CatalogIoDeathTest, KeyOutsideSectionIsFatal)
{
    EXPECT_EXIT(parseCatalogString("id = 1\n"),
                ::testing::ExitedWithCode(1), "outside a \\[soc\\]");
}

TEST(CatalogIoDeathTest, MalformedNumberIsFatal)
{
    EXPECT_EXIT(parseCatalogString("[soc]\narea_mm2 = twelve\n"),
                ::testing::ExitedWithCode(1), "not a number");
}

TEST(CatalogIoDeathTest, MissingRequiredFieldsAreFatal)
{
    EXPECT_EXIT(parseCatalogString("[soc]\nid = 1\nname = X\n"),
                ::testing::ExitedWithCode(1), "'channels'");
}

TEST(CatalogIoDeathTest, BadFractionIsFatal)
{
    std::string text = std::string(kMinimalEntry) +
                       "sensing_power_fraction = 1.5\n";
    EXPECT_EXIT(parseCatalogString(text), ::testing::ExitedWithCode(1),
                "sensing_power_fraction");
}

TEST(CatalogIoDeathTest, IdAboveIntMaxIsFatal)
{
    // 2^32 + 1 used to wrap to SoC 1 through the int cast.
    EXPECT_EXIT(parseCatalogString("[soc]\nid = 4294967297\n"),
                ::testing::ExitedWithCode(1),
                "line 2: id '4294967297' exceeds 2147483647");
}

TEST(CatalogIoDeathTest, SampleBitsOutsideAdcRangeIsFatal)
{
    // 0 used to reach the transceiver model and panic there; 2^32 + 10
    // used to wrap to 10 through the unsigned cast.
    for (const char *bits : {"0", "17", "4294967306"}) {
        EXPECT_EXIT(parseCatalogString(std::string("[soc]\nsample_bits = ") +
                                       bits + "\n"),
                    ::testing::ExitedWithCode(1),
                    std::string("line 2: sample_bits '") + bits +
                        "' must lie in \\[1, 16\\]");
    }
}

TEST(CatalogIoDeathTest, MissingFileIsFatal)
{
    EXPECT_EXIT(loadCatalog("/nonexistent/path/catalog.cfg"),
                ::testing::ExitedWithCode(1), "cannot open");
}

} // namespace
} // namespace mindful::core
