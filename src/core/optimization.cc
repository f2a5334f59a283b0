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

} // namespace mindful::core
