#include "dnn/mac_census.hh"

#include <algorithm>

namespace mindful::dnn {

std::uint64_t
totalMacs(std::span<const MacCensus> census)
{
    std::uint64_t total = 0;
    for (const auto &entry : census)
        total += entry.totalMacs();
    return total;
}

std::uint64_t
maxMacOp(std::span<const MacCensus> census)
{
    std::uint64_t best = 0;
    for (const auto &entry : census)
        best = std::max(best, entry.macOp);
    return best;
}

} // namespace mindful::dnn
