/**
 * @file
 * Modality integration test: the electrode front-end's measured
 * spike raster against the analytical event-centric uplink model.
 */

#include <gtest/gtest.h>

#include "core/event_centric.hh"
#include "core/soc_catalog.hh"
#include "ni/synthetic_cortex.hh"

namespace mindful {
namespace {

/**
 * The analytical event-centric model and a measured detection rate
 * agree on the uplink: feed the model the cortex's true mean spike
 * rate and compare against the raster-derived event volume.
 */
TEST(ModalityIntegrationTest, EventModelMatchesMeasuredRaster)
{
    ni::SyntheticCortexConfig config;
    config.channels = 128;
    config.activeFraction = 0.5;
    config.seed = 77;
    ni::SyntheticCortex cortex(config);
    auto rec = cortex.generate(32000); // 4 s

    std::uint64_t total_spikes = 0;
    for (std::uint64_t ch = 0; ch < rec.channels; ++ch)
        total_spikes += rec.spikeCount(ch);
    double measured_rate_per_channel =
        static_cast<double>(total_spikes) /
        (4.0 * static_cast<double>(rec.channels));

    core::EventStreamConfig stream;
    stream.meanSpikeRateHz = measured_rate_per_channel;
    core::EventCentricModel model(
        core::ImplantModel(core::socById(1)), stream);
    auto point = model.evaluate(128);

    double expected_bps = static_cast<double>(total_spikes) / 4.0 *
                          static_cast<double>(model.bitsPerEvent(128));
    EXPECT_NEAR(point.dataRate.inBitsPerSecond(), expected_bps,
                expected_bps * 1e-9);
}

} // namespace
} // namespace mindful
