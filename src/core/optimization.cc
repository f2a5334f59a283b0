#include "core/optimization.hh"

#include "base/logging.hh"

namespace mindful::core {

OptimizationSteps
OptimizationSteps::chDr()
{
    return {};
}

OptimizationSteps
OptimizationSteps::laChDr()
{
    OptimizationSteps steps;
    steps.layerReduction = true;
    return steps;
}

OptimizationSteps
OptimizationSteps::laChDrTech()
{
    OptimizationSteps steps = laChDr();
    steps.technologyScaling = true;
    return steps;
}

OptimizationSteps
OptimizationSteps::laChDrTechDense()
{
    OptimizationSteps steps = laChDrTech();
    steps.channelDensity = true;
    return steps;
}

std::string
OptimizationSteps::label() const
{
    std::string label = layerReduction ? "La+ChDr" : "ChDr";
    if (technologyScaling)
        label += "+Tech";
    if (channelDensity)
        label += "+Dense";
    return label;
}

OptimizationStudy::OptimizationStudy(ImplantModel implant,
                                     ModelBuilder builder)
    : _implant(std::move(implant)), _memo(std::move(builder))
{
}

OptimizationOutcome
OptimizationStudy::evaluate(std::uint64_t channels,
                            const OptimizationSteps &steps)
{
    MINDFUL_ASSERT(channels > 0, "channel count must be positive");

    CompCentricConfig config;
    if (steps.technologyScaling)
        config.mac = accel::scaled12nm();
    if (steps.channelDensity)
        config.sensingAreaScale = 0.5;

    const CompCentricModel model(_implant, _memo, config);

    OptimizationOutcome outcome;
    outcome.channels = channels;
    outcome.steps = steps;

    outcome.activeChannels =
        model.maxActiveChannels(channels, steps.layerReduction);
    if (outcome.activeChannels == 0)
        return outcome; // not even a single-channel model fits

    outcome.feasible = true;
    outcome.point = model.evaluate(channels, outcome.activeChannels,
                                   steps.layerReduction);

    double feasible_weights = static_cast<double>(
        _memo.facts(outcome.activeChannels).totalWeights);
    double full_weights =
        static_cast<double>(_memo.facts(channels).totalWeights);
    outcome.modelSizeFraction = feasible_weights / full_weights;
    return outcome;
}

std::vector<std::uint8_t>
channelDropoutMask(std::uint64_t channels, std::uint64_t active)
{
    MINDFUL_ASSERT(active <= channels, "active channel count ", active,
                   " exceeds total ", channels);
    std::vector<std::uint8_t> mask(channels, 0);
    std::fill(mask.begin(),
              mask.begin() + static_cast<std::ptrdiff_t>(active), 1);
    return mask;
}

std::vector<std::uint8_t>
expandChannelMask(const std::vector<std::uint8_t> &mask,
                  std::size_t features_per_channel)
{
    MINDFUL_ASSERT(features_per_channel > 0,
                   "features per channel must be positive");
    std::vector<std::uint8_t> expanded;
    expanded.reserve(mask.size() * features_per_channel);
    for (const std::uint8_t v : mask)
        expanded.insert(expanded.end(), features_per_channel,
                        v != 0 ? 1 : 0);
    return expanded;
}

} // namespace mindful::core
