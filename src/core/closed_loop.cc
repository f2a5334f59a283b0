#include "core/closed_loop.hh"

#include "base/logging.hh"
#include "dnn/tensor.hh"
#include "obs/collector.hh"
#include "obs/metrics.hh"

namespace mindful::core {

Power
StimulatorSpec::meanPower() const
{
    double pulses_per_second = static_cast<double>(sites) *
                               activeFraction * pulseRateHz;
    return Power::watts(pulses_per_second * energyPerPulse.inJoules()) +
           staticOverhead;
}

ClosedLoopStudy::ClosedLoopStudy(ImplantModel implant, ModelBuilder decoder,
                                 StimulatorSpec stimulator,
                                 ClosedLoopConfig config)
    : _implant(std::move(implant)), _decoder(std::move(decoder)),
      _stimulator(stimulator), _config(config)
{
    MINDFUL_ASSERT(_decoder != nullptr, "a decoder builder is required");
    MINDFUL_ASSERT(_stimulator.sites > 0,
                   "stimulator needs at least one site");
    MINDFUL_ASSERT(_stimulator.activeFraction >= 0.0 &&
                       _stimulator.activeFraction <= 1.0,
                   "active fraction must lie in [0, 1]");
    MINDFUL_ASSERT(_config.reactionDeadline.inSeconds() > 0.0,
                   "reaction deadline must be positive");
}

ClosedLoopPoint
ClosedLoopStudy::evaluate(std::uint64_t channels) const
{
    MINDFUL_ASSERT(channels > 0, "channel count must be positive");

    MINDFUL_TRACE_SPAN(loop_span, "core", "closed_loop.evaluate");
    loop_span.arg("channels", channels);
    MINDFUL_METRIC_COUNT("core.closed_loop.evaluations", 1);

    ClosedLoopPoint point;
    point.channels = channels;

    dnn::Network network = _decoder(channels);

    // --- Sense phase: acquisition window ahead of the decoder. ------
    std::size_t window_samples;
    {
        MINDFUL_TRACE_SPAN(span, "core", "closed_loop.sense");
        window_samples =
            dnn::elementCount(network.inputShape()) /
            std::max<std::size_t>(1, static_cast<std::size_t>(channels));
        point.acquisitionLatency =
            period(_config.applicationRate) *
            static_cast<double>(
                std::max<std::size_t>(1, window_samples));
        point.sensingPower = _implant.sensingPower(channels);
        span.arg("window_samples",
                 static_cast<std::uint64_t>(window_samples));
    }

    // --- Decode phase: accelerator sizing for the decoder DNN. ------
    {
        MINDFUL_TRACE_SPAN(span, "core", "closed_loop.decode");
        // The decoder must keep up with the application sampling rate
        // (same Eq. 11-15 sizing as the open-loop study).
        accel::LowerBoundSolver solver(_config.mac);
        point.bound = solver.solveBest(network.census(),
                                       period(_config.applicationRate));
        point.decodeLatency = point.bound.latency;
        point.computePower = point.bound.power;
        span.arg("mac_units", point.bound.macUnits)
            .arg("decode_latency_us",
                 point.decodeLatency.inMicroseconds());
    }

    // --- Stimulate phase: actuation latency and power. --------------
    {
        MINDFUL_TRACE_SPAN(span, "core", "closed_loop.stimulate");
        point.stimulationLatency = _stimulator.setupLatency;
        point.stimulationPower = _stimulator.meanPower();
        span.arg("sites", _stimulator.sites);
    }

    point.loopLatency = point.acquisitionLatency + point.decodeLatency +
                        point.stimulationLatency;
    point.meetsDeadline =
        point.bound.feasible &&
        point.loopLatency <= _config.reactionDeadline;

    // --- Power decomposition. ---------------------------------------
    point.digitalPower = _implant.digitalPower();
    DataRate telemetry =
        Frequency::hertz(_config.telemetryValuesPerSecond) *
        static_cast<double>(_implant.sampleBits());
    point.telemetryPower = telemetry * _implant.commEnergyPerBit();
    point.totalPower = point.sensingPower + point.computePower +
                       point.stimulationPower + point.digitalPower +
                       point.telemetryPower;

    Area total_area =
        _implant.sensingArea(channels) + _implant.nonSensingArea();
    point.powerBudget = _implant.powerBudget(total_area);
    point.budgetUtilization = point.totalPower / point.powerBudget;
    point.withinBudget = point.budgetUtilization <= 1.0;

    MINDFUL_METRIC_RECORD("core.closed_loop.loop_latency_us",
                          point.loopLatency.inMicroseconds());
    MINDFUL_METRIC_RECORD("core.closed_loop.total_power_mw",
                          point.totalPower.inMilliwatts());
    loop_span.arg("loop_latency_us", point.loopLatency.inMicroseconds())
        .arg("meets_deadline", point.meetsDeadline);
    return point;
}

std::uint64_t
ClosedLoopStudy::maxChannels(std::uint64_t max_channels,
                             std::uint64_t step) const
{
    MINDFUL_ASSERT(step > 0, "scan step must be positive");
    std::uint64_t best = 0;
    std::uint64_t misses = 0;
    for (std::uint64_t n = step; n <= max_channels; n += step) {
        if (evaluate(n).feasible()) {
            best = n;
            misses = 0;
        } else if (++misses >= 8 && best > 0) {
            break;
        }
    }
    return best;
}

} // namespace mindful::core
