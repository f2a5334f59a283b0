/**
 * @file
 * Workloads `loop_mlp` and `loop_cnn`: replay a seeded SyntheticCortex
 * recording (256 channels, 30 kHz) in 5 ms hops, as if the samples were
 * arriving live, from signal in to decision out. Each hop runs
 *
 *  1. ni::AdcModel::quantize of every raw frame (one frame = one
 *     sample on every channel);
 *  2. comm::Packetizer pack, then CRC-checked unpack, of every frame;
 *  3. a spike-band signal::BiquadCascade per channel, then a
 *     signal::ThresholdDetector;
 *  4. ten decoder inferences, one per 2 kHz application sample (the
 *     paper's t = 1/f deadline), each on a window of decimated samples;
 *  5. packing the ten label vectors into one frame.
 *
 * The recording is 0.5 s long and is replayed cyclically; decisions
 * depend only on the position in the recording, so every revisit of a
 * position must reproduce its first decisions bit for bit.
 */

#include <algorithm>
#include <cstring>

#include "accel/simulator.hh"
#include "base/logging.hh"
#include "comm/packetizer.hh"
#include "dnn/models.hh"
#include "exec/thread_pool.hh"
#include "ni/adc.hh"
#include "ni/synthetic_cortex.hh"
#include "signal/filters.hh"
#include "signal/spike_detect.hh"
#include "workload.hh"

namespace perfbench {
namespace {

using namespace mindful;

constexpr std::uint64_t kChannels = 256;
constexpr double kSampleHz = 30000.0;
constexpr std::size_t kHopSamples = 150;  // 5 ms at 30 kHz
constexpr std::size_t kDecimation = 15;   // 30 kHz -> 2 kHz
constexpr std::size_t kInferences = kHopSamples / kDecimation;
constexpr std::size_t kRecordingSteps = 15000; // 0.5 s
constexpr std::size_t kPositions = kRecordingSteps / kHopSamples;
constexpr double kFullScaleUv = 1000.0;

const char *const kStages[] = {
    "loop.adc_ms",    "loop.uplink_pack_ms", "loop.uplink_unpack_ms",
    "loop.filter_ms", "loop.detect_ms",      "loop.window_ms",
    "loop.decode_ms", "loop.label_pack_ms",
};

class Loop : public Workload
{
  public:
    Loop(const Context &context, bool cnn) : _seed(context.seed), _cnn(cnn)
    {
    }

    void
    setup() override
    {
        _network = std::make_unique<dnn::Network>(
            _cnn ? dnn::buildSpeechDnCnn(kChannels)
                 : dnn::buildSpeechMlp(kChannels));
        Rng rng = Rng(_seed).fork(1);
        _network->initializeWeights(rng);
        _window = dnn::elementCount(_network->inputShape()) / kChannels;

        const Frequency fs = Frequency::hertz(kSampleHz);
        _adc = std::make_unique<ni::AdcModel>(10, kFullScaleUv, fs);
        _cascades.assign(kChannels, signal::BiquadCascade::spikeBand(fs));

        ni::SyntheticCortexConfig config;
        config.channels = kChannels;
        config.samplingFrequency = fs;
        config.seed = Rng(_seed).fork(2).seed();
        ni::SyntheticCortex cortex(config);
        _recording = cortex.generate(kRecordingSteps);

        _frame.assign(kChannels, 0.0);
        _codes.assign(kHopSamples, {});
        _frames.assign(kHopSamples, {});
        _received.assign(kHopSamples, {});
        _trace.assign(kHopSamples, 0.0);
        _filtered.assign(kChannels, {});
        _inputs.assign(kInferences, dnn::Tensor(_network->inputShape()));
        _outputs.assign(kInferences, dnn::Tensor());
        _labels.assign(kInferences * 40, 0);
        _firstDigest.assign(kPositions, 0);
        _firstLabels.assign(kPositions, {});
    }

    PassStats
    run(double seconds, std::size_t min_ops, Tracer *tracer) override
    {
        for (signal::BiquadCascade &cascade : _cascades)
            cascade.reset();
        std::fill(_firstDigest.begin(), _firstDigest.end(), 0);
        _crcFailures = 0;
        _spikes = 0;
        _hops = 0;

        PassStats stats = runFor(seconds, min_ops, tracer,
                                 [&](std::uint32_t hop, PassStats &stats,
                                     Tracer *traced) {
            const OpClock clock;
            bool ok = runHop(hop, traced);
            clock.record(stats);
            if (traced)
                ok = simulatorAgrees() && ok;
            ++stats.attempted;
            stats.failed += ok ? 0 : 1;
        });
        _hops = stats.opMs.size();
        return stats;
    }

    /**
     * Reference outside the measured part: the first inference of
     * every position the run decoded, recomputed on one thread, must
     * give the labels the pool-parallel run gave.
     */
    void
    verify(PassStats &stats) override
    {
        const unsigned threads = exec::ThreadPool::globalThreadCount();
        exec::ThreadPool::setGlobalThreadCount(1);
        std::uint64_t digest = kFnvOffset;
        for (std::size_t p = 0; p < kPositions && p < _hops; ++p) {
            fillWindow(p * kHopSamples + kDecimation - 1, _inputs[0]);
            const dnn::Tensor out = _network->forward(_inputs[0]);
            if (labelCodes(out) != _firstLabels[p]) {
                MINDFUL_WARN_ONCE("perfbench: loop position ", p,
                                  " differs from the 1-thread reference");
                ++stats.failed;
            }
            digest = fnvMix(digest, _firstDigest[p]);
        }
        exec::ThreadPool::setGlobalThreadCount(threads);
        stats.facts["decision_digest"] = std::to_string(digest);
        stats.facts["decision_positions"] =
            std::to_string(std::min<std::size_t>(kPositions, _hops));
    }

    void
    layerMetrics(const Tracer &tracer, Metrics &out) override
    {
        for (const char *stage : kStages)
            out[stage] = {median(tracer.perOpMs(stage)), "ms"};
        out["loop.spikes_detected"] = {
            _hops ? static_cast<double>(_spikes) / static_cast<double>(_hops)
                  : 0.0,
            "count/hop"};
        out["loop.crc_failures"] = {static_cast<double>(_crcFailures),
                                    "count"};
    }

  private:
    /** One hop; false when a frame or a decision failed its check. */
    bool
    runHop(std::uint32_t hop, Tracer *tracer)
    {
        const std::size_t position = hop % kPositions;
        const std::size_t t0 = position * kHopSamples;
        Scope root(tracer, "loop.hop", hop);
        const std::int32_t parent = root.index();

        std::vector<std::vector<std::uint32_t>> &codes = _codes;
        {
            Scope span(tracer, "loop.adc_ms", hop, parent);
            for (std::size_t s = 0; s < kHopSamples; ++s) {
                for (std::uint64_t ch = 0; ch < kChannels; ++ch)
                    _frame[ch] = _recording.sample(ch, t0 + s);
                codes[s] = _adc->quantize(_frame);
            }
        }
        std::vector<std::vector<std::uint8_t>> &frames = _frames;
        {
            Scope span(tracer, "loop.uplink_pack_ms", hop, parent);
            for (std::size_t s = 0; s < kHopSamples; ++s)
                frames[s] = _packetizer.pack(sequence(hop, s), codes[s]);
        }
        std::vector<comm::UnpackedFrame> &received = _received;
        {
            Scope span(tracer, "loop.uplink_unpack_ms", hop, parent);
            for (std::size_t s = 0; s < kHopSamples; ++s)
                received[s] = _packetizer.unpack(frames[s]);
        }
        bool ok = true;
        for (std::size_t s = 0; s < kHopSamples; ++s) {
            if (!received[s].valid || received[s].samples != codes[s] ||
                received[s].sequence != sequence(hop, s)) {
                ++_crcFailures;
                ok = false;
            }
        }
        {
            Scope span(tracer, "loop.filter_ms", hop, parent);
            for (std::uint64_t ch = 0; ch < kChannels; ++ch) {
                const double *x = &_recording.samples[ch * kRecordingSteps +
                                                      t0];
                _trace.assign(x, x + kHopSamples);
                _filtered[ch] = _cascades[ch].apply(_trace);
            }
        }
        {
            Scope span(tracer, "loop.detect_ms", hop, parent);
            for (std::uint64_t ch = 0; ch < kChannels; ++ch)
                _spikes += _detector.detect(_filtered[ch]).size();
        }
        {
            Scope span(tracer, "loop.window_ms", hop, parent);
            for (std::size_t k = 0; k < kInferences; ++k)
                fillWindow(t0 + (k + 1) * kDecimation - 1, _inputs[k]);
        }
        {
            Scope span(tracer, "loop.decode_ms", hop, parent);
            for (std::size_t k = 0; k < kInferences; ++k)
                _outputs[k] = _network->forward(_inputs[k]);
        }
        std::uint64_t digest = kFnvOffset;
        {
            Scope span(tracer, "loop.label_pack_ms", hop, parent);
            for (std::size_t k = 0; k < kInferences; ++k) {
                const std::vector<std::uint32_t> codes_k =
                    labelCodes(_outputs[k]);
                std::copy(codes_k.begin(), codes_k.end(),
                          _labels.begin() + k * 40);
            }
            _labelFrame = _packetizer.pack(static_cast<std::uint16_t>(hop),
                                           _labels);
        }
        for (std::uint32_t code : _labels)
            digest = fnvMix(digest, code);

        // Decisions are a function of the recording position only.
        if (_firstDigest[position] == 0) {
            _firstDigest[position] = digest;
            _firstLabels[position].assign(_labels.begin(),
                                          _labels.begin() + 40);
        } else if (_firstDigest[position] != digest) {
            ok = false;
        }
        return ok;
    }

    /** Traced runs: the PE-array simulator must match every window. */
    bool
    simulatorAgrees()
    {
        if (!_simulator)
            _simulator = std::make_unique<accel::AcceleratorSimulator>(
                simulatorFor(*_network));
        bool ok = true;
        for (std::size_t k = 0; k < kInferences; ++k) {
            const accel::SimulationResult result =
                _simulator->run(*_network, _inputs[k]);
            ok = ok && result.output.size() == _outputs[k].size() &&
                 std::memcmp(result.output.data(), _outputs[k].data(),
                             _outputs[k].size() * sizeof(float)) == 0;
        }
        return ok;
    }

    static std::uint16_t
    sequence(std::uint32_t hop, std::size_t s)
    {
        return static_cast<std::uint16_t>(hop * kHopSamples + s);
    }

    /** Decimated window ending at step @p t, wrapping at the start. */
    void
    fillWindow(std::size_t t, dnn::Tensor &input) const
    {
        float *dst = input.data();
        for (std::uint64_t ch = 0; ch < kChannels; ++ch) {
            const double *row = &_recording.samples[ch * kRecordingSteps];
            for (std::size_t s = 0; s < _window; ++s) {
                const std::size_t back = (_window - 1 - s) * kDecimation;
                const std::size_t at =
                    (t + kRecordingSteps - back % kRecordingSteps) %
                    kRecordingSteps;
                dst[ch * _window + s] =
                    static_cast<float>(row[at] / kFullScaleUv);
            }
        }
    }

    /** 40 label probabilities quantized to 10-bit codes. */
    static std::vector<std::uint32_t>
    labelCodes(const dnn::Tensor &out)
    {
        std::vector<std::uint32_t> codes(out.size());
        for (std::size_t i = 0; i < out.size(); ++i) {
            const float p = std::clamp(out[i], 0.0f, 1.0f);
            codes[i] = static_cast<std::uint32_t>(p * 1023.0f);
        }
        return codes;
    }

    std::uint64_t _seed;
    bool _cnn;
    std::unique_ptr<dnn::Network> _network;
    std::size_t _window = 0;
    std::unique_ptr<ni::AdcModel> _adc;
    comm::Packetizer _packetizer{comm::FrameConfig{10}};
    std::vector<signal::BiquadCascade> _cascades;
    signal::ThresholdDetector _detector;
    ni::Recording _recording;
    std::unique_ptr<accel::AcceleratorSimulator> _simulator;

    std::vector<double> _frame;
    std::vector<std::vector<std::uint32_t>> _codes;
    std::vector<std::vector<std::uint8_t>> _frames;
    std::vector<comm::UnpackedFrame> _received;
    std::vector<double> _trace;
    std::vector<std::vector<double>> _filtered;
    std::vector<dnn::Tensor> _inputs;
    std::vector<dnn::Tensor> _outputs;
    std::vector<std::uint32_t> _labels;
    std::vector<std::uint8_t> _labelFrame;

    std::vector<std::uint64_t> _firstDigest;
    std::vector<std::vector<std::uint32_t>> _firstLabels;
    std::uint64_t _crcFailures = 0;
    std::uint64_t _spikes = 0;
    std::size_t _hops = 0;
};

} // namespace

std::unique_ptr<Workload>
makeLoop(const Context &context, bool cnn)
{
    return std::make_unique<Loop>(context, cnn);
}

} // namespace perfbench
