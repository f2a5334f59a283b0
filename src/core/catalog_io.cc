#include "core/catalog_io.hh"

#include <fstream>
#include <istream>
#include <limits>
#include <locale>
#include <ostream>
#include <sstream>

#include "base/logging.hh"
#include "base/parse.hh"
#include "ni/adc.hh"

namespace mindful::core {

namespace {

/** Trim ASCII whitespace from both ends. */
std::string
trim(const std::string &text)
{
    std::size_t first = text.find_first_not_of(" \t\r");
    if (first == std::string::npos)
        return "";
    std::size_t last = text.find_last_not_of(" \t\r");
    return text.substr(first, last - first + 1);
}

double
parseDouble(const std::string &value, int line)
{
    // std::from_chars under the hood: the same catalog file parses
    // identically in every process locale, and malformed values fail
    // here with the line number instead of throwing from std::stod.
    std::optional<double> parsed = mindful::parseDouble(value);
    if (!parsed)
        MINDFUL_FATAL("catalog line ", line, ": '", value,
                      "' is not a number");
    return *parsed;
}

std::uint64_t
parseUnsigned(const std::string &value, int line)
{
    // Integers parse directly as std::uint64_t — never through
    // double, which silently rounds values above 2^53.
    std::optional<std::uint64_t> parsed = mindful::parseUnsigned(value);
    if (!parsed)
        MINDFUL_FATAL("catalog line ", line, ": '", value,
                      "' is not a non-negative integer");
    return *parsed;
}

bool
parseBool(const std::string &value, int line)
{
    if (value == "true" || value == "yes" || value == "1")
        return true;
    if (value == "false" || value == "no" || value == "0")
        return false;
    MINDFUL_FATAL("catalog line ", line, ": '", value,
                  "' is not a boolean (true/false)");
}

/** Validate the cross-field invariants of a parsed design. */
void
validate(const SocDesign &soc, int line)
{
    if (soc.reportedChannels == 0)
        MINDFUL_FATAL("catalog entry ending at line ", line,
                      ": 'channels' must be positive");
    if (soc.reportedArea.inSquareMetres() <= 0.0)
        MINDFUL_FATAL("catalog entry ending at line ", line,
                      ": 'area_mm2' must be positive");
    if (soc.reportedPower.inWatts() <= 0.0)
        MINDFUL_FATAL("catalog entry ending at line ", line,
                      ": 'power_mw' must be positive");
    if (soc.samplingFrequency.inHertz() <= 0.0)
        MINDFUL_FATAL("catalog entry ending at line ", line,
                      ": 'sampling_khz' must be positive");
    if (soc.name.empty())
        MINDFUL_FATAL("catalog entry ending at line ", line,
                      ": 'name' is required");
    if (soc.sensingPowerFraction <= 0.0 || soc.sensingPowerFraction >= 1.0)
        MINDFUL_FATAL("catalog entry ending at line ", line,
                      ": 'sensing_power_fraction' must lie in (0, 1)");
    if (soc.sensingAreaFraction <= 0.0 || soc.sensingAreaFraction >= 1.0)
        MINDFUL_FATAL("catalog entry ending at line ", line,
                      ": 'sensing_area_fraction' must lie in (0, 1)");
}

} // namespace

std::vector<SocDesign>
parseCatalog(std::istream &input)
{
    std::vector<SocDesign> designs;
    bool in_section = false;
    SocDesign current;
    int line_number = 0;
    int section_line = 0;

    auto finish = [&](int line) {
        if (!in_section)
            return;
        validate(current, line);
        designs.push_back(current);
        in_section = false;
    };

    std::string raw;
    while (std::getline(input, raw)) {
        ++line_number;
        std::string line = raw;
        // Strip comments.
        std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;

        if (line == "[soc]") {
            finish(line_number);
            current = SocDesign{};
            in_section = true;
            section_line = line_number;
            continue;
        }
        if (!in_section)
            MINDFUL_FATAL("catalog line ", line_number,
                          ": key outside a [soc] section");

        std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            MINDFUL_FATAL("catalog line ", line_number,
                          ": expected 'key = value'");
        std::string key = trim(line.substr(0, eq));
        std::string value = trim(line.substr(eq + 1));

        if (key == "id") {
            const std::uint64_t id = parseUnsigned(value, line_number);
            if (id > static_cast<std::uint64_t>(
                         std::numeric_limits<int>::max()))
                MINDFUL_FATAL("catalog line ", line_number, ": id '",
                              value, "' exceeds ",
                              std::numeric_limits<int>::max());
            current.id = static_cast<int>(id);
        } else if (key == "name") {
            current.name = value;
        } else if (key == "reference") {
            current.reference = value;
        } else if (key == "sensor") {
            if (value == "electrodes")
                current.sensorType = ni::SensorType::Electrode;
            else if (value == "spad")
                current.sensorType = ni::SensorType::Spad;
            else
                MINDFUL_FATAL("catalog line ", line_number, ": sensor '",
                              value, "' must be electrodes or spad");
        } else if (key == "channels") {
            current.reportedChannels = parseUnsigned(value, line_number);
        } else if (key == "area_mm2") {
            current.reportedArea = Area::squareMillimetres(
                parseDouble(value, line_number));
        } else if (key == "power_mw") {
            current.reportedPower =
                Power::milliwatts(parseDouble(value, line_number));
        } else if (key == "sampling_khz") {
            current.samplingFrequency =
                Frequency::kilohertz(parseDouble(value, line_number));
        } else if (key == "sample_bits") {
            const std::uint64_t bits = parseUnsigned(value, line_number);
            if (bits < 1 || bits > ni::kMaxAdcBits)
                MINDFUL_FATAL("catalog line ", line_number,
                              ": sample_bits '", value,
                              "' must lie in [1, ", ni::kMaxAdcBits, "]");
            current.sampleBits = static_cast<unsigned>(bits);
        } else if (key == "wireless") {
            current.wireless = parseBool(value, line_number);
        } else if (key == "validated") {
            current.validatedInOrExVivo = parseBool(value, line_number);
        } else if (key == "scaling_law") {
            if (value == "sqrt")
                current.recipe.law = ScalingLaw::SqrtAreaLinearPower;
            else if (value == "linear")
                current.recipe.law = ScalingLaw::Linear;
            else
                MINDFUL_FATAL("catalog line ", line_number,
                              ": scaling_law '", value,
                              "' must be sqrt or linear");
        } else if (key == "base_channels") {
            current.recipe.baseChannels =
                parseUnsigned(value, line_number);
        } else if (key == "area_correction") {
            current.recipe.areaCorrection =
                parseDouble(value, line_number);
        } else if (key == "power_correction") {
            current.recipe.powerCorrection =
                parseDouble(value, line_number);
        } else if (key == "correction_note") {
            current.recipe.correctionNote = value;
        } else if (key == "sensing_power_fraction") {
            current.sensingPowerFraction =
                parseDouble(value, line_number);
        } else if (key == "sensing_area_fraction") {
            current.sensingAreaFraction = parseDouble(value, line_number);
        } else if (key == "comm_share") {
            current.commShareOfNonSensing =
                parseDouble(value, line_number);
        } else {
            MINDFUL_FATAL("catalog line ", line_number,
                          ": unknown key '", key, "'");
        }
    }
    finish(line_number ? line_number : section_line);
    return designs;
}

std::vector<SocDesign>
parseCatalogString(const std::string &text)
{
    std::istringstream stream(text);
    return parseCatalog(stream);
}

std::vector<SocDesign>
loadCatalog(const std::string &path)
{
    std::ifstream file(path);
    if (!file)
        MINDFUL_FATAL("cannot open catalog file '", path, "'");
    return parseCatalog(file);
}

void
writeCatalog(std::ostream &output, const std::vector<SocDesign> &designs)
{
    // Streams format numbers in the locale they were constructed
    // under; pin the classic ("C") locale for the write so a catalog
    // emitted under a de_DE-style global locale still reads back
    // ("3.14", never "3,14"), then restore the caller's locale.
    const std::locale saved = output.imbue(std::locale::classic());
    for (const auto &soc : designs) {
        output << "[soc]\n";
        output << "id = " << soc.id << '\n';
        output << "name = " << soc.name << '\n';
        if (!soc.reference.empty())
            output << "reference = " << soc.reference << '\n';
        output << "sensor = "
               << (soc.sensorType == ni::SensorType::Spad ? "spad"
                                                          : "electrodes")
               << '\n';
        output << "channels = " << soc.reportedChannels << '\n';
        output << "area_mm2 = " << soc.reportedArea.inSquareMillimetres()
               << '\n';
        output << "power_mw = " << soc.reportedPower.inMilliwatts()
               << '\n';
        output << "sampling_khz = "
               << soc.samplingFrequency.inKilohertz() << '\n';
        output << "sample_bits = " << soc.sampleBits << '\n';
        output << "wireless = " << (soc.wireless ? "true" : "false")
               << '\n';
        output << "validated = "
               << (soc.validatedInOrExVivo ? "true" : "false") << '\n';
        output << "scaling_law = "
               << (soc.recipe.law == ScalingLaw::Linear ? "linear"
                                                        : "sqrt")
               << '\n';
        output << "base_channels = " << soc.recipe.baseChannels << '\n';
        output << "area_correction = " << soc.recipe.areaCorrection
               << '\n';
        output << "power_correction = " << soc.recipe.powerCorrection
               << '\n';
        if (!soc.recipe.correctionNote.empty())
            output << "correction_note = " << soc.recipe.correctionNote
                   << '\n';
        output << "sensing_power_fraction = " << soc.sensingPowerFraction
               << '\n';
        output << "sensing_area_fraction = " << soc.sensingAreaFraction
               << '\n';
        output << "comm_share = " << soc.commShareOfNonSensing << '\n';
        output << '\n';
    }
    output.imbue(saved);
}

std::string
writeCatalogString(const std::vector<SocDesign> &designs)
{
    std::ostringstream stream;
    writeCatalog(stream, designs);
    return stream.str();
}

} // namespace mindful::core
