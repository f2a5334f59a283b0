#include "base/parse.hh"

#include <charconv>
#include <cmath>

namespace mindful {

std::optional<double>
parseDouble(std::string_view text)
{
    // std::from_chars rejects a leading '+'; std::stod accepted it,
    // and existing catalogs may rely on that spelling. After a '+'
    // from_chars would still read a '-', so "+-1.5" is rejected here.
    if (!text.empty() && text.front() == '+') {
        text.remove_prefix(1);
        if (!text.empty() && text.front() == '-')
            return std::nullopt;
    }
    if (text.empty())
        return std::nullopt;
    double value = 0.0;
    const char *last = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), last, value);
    if (ec != std::errc() || ptr != last || !std::isfinite(value))
        return std::nullopt;
    return value;
}

std::optional<std::uint64_t>
parseUnsigned(std::string_view text)
{
    if (!text.empty() && text.front() == '+')
        text.remove_prefix(1);
    if (text.empty())
        return std::nullopt;
    std::uint64_t value = 0;
    const char *last = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), last, value);
    if (ec != std::errc() || ptr != last)
        return std::nullopt;
    return value;
}

std::optional<unsigned>
parseThreadCount(std::string_view text)
{
    std::optional<std::uint64_t> value = parseUnsigned(text);
    if (!value || *value > kMaxThreadCount)
        return std::nullopt;
    return static_cast<unsigned>(*value);
}

} // namespace mindful
