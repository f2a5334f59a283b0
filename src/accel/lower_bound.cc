#include "accel/lower_bound.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/special_math.hh"

namespace mindful::accel {

LowerBoundSolver::LowerBoundSolver(MacUnitParams mac) : _mac(std::move(mac))
{
    MINDFUL_ASSERT(_mac.macTime.inSeconds() > 0.0,
                   "MAC latency must be positive");
    MINDFUL_ASSERT(_mac.macPower.inWatts() > 0.0,
                   "MAC power must be positive");
}

Time
LowerBoundSolver::sharedPoolLatency(std::span<const dnn::MacCensus> census,
                                    std::uint64_t mac_units) const
{
    MINDFUL_ASSERT(mac_units > 0, "latency needs at least one MAC unit");
    double steps = 0.0;
    for (const auto &layer : census) {
        if (layer.empty())
            continue;
        steps += static_cast<double>(layer.macSeq) *
                 static_cast<double>(ceilDiv(layer.macOp, mac_units));
    }
    return Time::seconds(steps * _mac.macTime.inSeconds());
}

AcceleratorBound
LowerBoundSolver::solveSharedPool(std::span<const dnn::MacCensus> census,
                                  Time t) const
{
    MINDFUL_ASSERT(t.inSeconds() > 0.0, "deadline must be positive");

    AcceleratorBound bound;
    bound.discipline = Discipline::SharedPool;

    std::uint64_t cap = dnn::maxMacOp(census);
    if (cap == 0) {
        // A MAC-free network is trivially feasible with zero units.
        bound.feasible = true;
        bound.latency = Time::seconds(0.0);
        return bound;
    }

    // Latency is monotone non-increasing in the unit count, so the
    // smallest feasible count is found by binary search up to the
    // Eq. 12 cap (units beyond max #MAC_op are never exploitable).
    auto meets = [&](std::int64_t units) {
        return sharedPoolLatency(census,
                                 static_cast<std::uint64_t>(units)) <= t;
    };
    std::int64_t first = binarySearchFirstTrue(
        1, static_cast<std::int64_t>(cap), meets);
    if (first > static_cast<std::int64_t>(cap))
        return bound; // infeasible even with maximal parallelism

    bound.feasible = true;
    bound.macUnits = static_cast<std::uint64_t>(first);
    bound.power = _mac.macPower * static_cast<double>(bound.macUnits);
    bound.latency = sharedPoolLatency(census, bound.macUnits);
    return bound;
}

AcceleratorBound
LowerBoundSolver::solvePipelined(std::span<const dnn::MacCensus> census,
                                 Time t) const
{
    MINDFUL_ASSERT(t.inSeconds() > 0.0, "deadline must be positive");

    AcceleratorBound bound;
    bound.discipline = Discipline::Pipelined;
    bound.perLayerUnits.assign(census.size(), 0);

    double worst_latency = 0.0;
    std::uint64_t total_units = 0;
    const double t_mac = _mac.macTime.inSeconds();

    for (std::size_t i = 0; i < census.size(); ++i) {
        const auto &layer = census[i];
        if (layer.empty())
            continue;

        // Minimal units for layer i alone:
        //   seq_i * t_MAC * ceil(op_i / m) <= t
        //   ceil(op_i / m) <= t / (seq_i * t_MAC) =: passes
        double layer_seq_time =
            static_cast<double>(layer.macSeq) * t_mac;
        auto passes = static_cast<std::uint64_t>(
            t.inSeconds() / layer_seq_time);
        if (passes == 0)
            return bound; // this layer can never meet the deadline

        std::uint64_t units = ceilDiv(layer.macOp, passes);
        units = std::min(units, layer.macOp);
        bound.perLayerUnits[i] = units;
        total_units += units;

        double latency = layer_seq_time *
                         static_cast<double>(ceilDiv(layer.macOp, units));
        worst_latency = std::max(worst_latency, latency);
    }

    bound.feasible = true;
    bound.macUnits = total_units;
    bound.power = _mac.macPower * static_cast<double>(total_units);
    bound.latency = Time::seconds(worst_latency);
    return bound;
}

AcceleratorBound
LowerBoundSolver::solveBest(std::span<const dnn::MacCensus> census,
                            Time t) const
{
    AcceleratorBound shared = solveSharedPool(census, t);
    AcceleratorBound pipelined = solvePipelined(census, t);
    if (!shared.feasible)
        return pipelined;
    if (!pipelined.feasible)
        return shared;
    return pipelined.macUnits < shared.macUnits ? pipelined : shared;
}

} // namespace mindful::accel
