#include "signal/spike_detect.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "base/logging.hh"

namespace mindful::signal {

double
madNoiseEstimate(const std::vector<double> &trace)
{
    MINDFUL_ASSERT(!trace.empty(), "noise estimate needs samples");
    // Quickselect of rank n/2 over |trace|. Each pass scatters its
    // range three ways around a median-of-3 pivot p: magnitudes below p
    // fill the front, those above p the back, and the ones equal to p
    // leave the gap between them, whose value is p. Every element is
    // written to both ends and only the matching cursor moves, so the
    // pass has no data-dependent branch. The pivot's own group is never
    // kept, so each pass shrinks the range, ties and NaNs included.
    // The first pass reads the trace itself; |.| is idempotent, so the
    // later passes over the two halves of `buffer` may take it again.
    const std::size_t n = trace.size();
    const std::size_t rank = n / 2;
    std::vector<double> buffer(2 * n);
    const double *src = trace.data();
    double *dst = buffer.data();
    double *spare = dst + n;
    std::size_t lo = 0;
    std::size_t hi = n;
    for (;;) {
        const double a = std::abs(src[lo]);
        const double b = std::abs(src[lo + (hi - lo) / 2]);
        const double c = std::abs(src[hi - 1]);
        const double p =
            std::max(std::min(a, b), std::min(std::max(a, b), c));
        // Invariant: hi - i <= gt - lt, so both stores stay in [lt, gt).
        std::size_t lt = lo;
        std::size_t gt = hi;
        for (std::size_t i = lo; i < hi; ++i) {
            const double v = std::abs(src[i]);
            dst[lt] = v;
            dst[gt - 1] = v;
            lt += static_cast<std::size_t>(v < p);
            gt -= static_cast<std::size_t>(v > p);
        }
        if (rank < lt)
            hi = lt;
        else if (rank >= gt)
            lo = gt;
        else
            return p / 0.6745;
        src = dst;
        std::swap(dst, spare);
    }
}

namespace {

/**
 * Shared peak-picking walk: scan a criterion trace against a
 * threshold, report the extremum of each crossing, and honour the
 * refractory dead time.
 */
std::vector<SpikeEvent>
pickPeaks(const std::vector<double> &criterion,
          const std::vector<double> &trace, double threshold,
          bool negative_going, std::size_t refractory)
{
    std::vector<SpikeEvent> events;
    std::size_t i = 0;
    const std::size_t n = criterion.size();
    while (i < n) {
        bool crossed = negative_going ? criterion[i] <= -threshold
                                      : criterion[i] >= threshold;
        if (!crossed) {
            ++i;
            continue;
        }
        // Walk the suprathreshold excursion to its extremum.
        std::size_t peak = i;
        std::size_t j = i;
        while (j < n) {
            bool still = negative_going ? criterion[j] <= -threshold
                                        : criterion[j] >= threshold;
            if (!still)
                break;
            bool better = negative_going
                              ? criterion[j] < criterion[peak]
                              : criterion[j] > criterion[peak];
            if (better)
                peak = j;
            ++j;
        }
        events.push_back({peak, trace[peak]});
        i = std::max(j, peak + refractory);
    }
    return events;
}

} // namespace

ThresholdDetector::ThresholdDetector(SpikeDetectorConfig config)
    : _config(config)
{
    MINDFUL_ASSERT(config.thresholdSigmas > 0.0,
                   "threshold must be positive");
}

std::vector<SpikeEvent>
ThresholdDetector::detect(const std::vector<double> &trace) const
{
    if (trace.empty())
        return {};
    double sigma = madNoiseEstimate(trace);
    if (sigma <= 0.0)
        return {};
    double threshold = _config.thresholdSigmas * sigma;
    return pickPeaks(trace, trace, threshold, _config.negativeGoing,
                     _config.refractorySamples);
}

NeoDetector::NeoDetector(SpikeDetectorConfig config) : _config(config)
{
    MINDFUL_ASSERT(config.thresholdSigmas > 0.0,
                   "threshold must be positive");
}

std::vector<double>
NeoDetector::energy(const std::vector<double> &trace)
{
    std::vector<double> psi(trace.size(), 0.0);
    for (std::size_t i = 1; i + 1 < trace.size(); ++i)
        psi[i] = trace[i] * trace[i] - trace[i - 1] * trace[i + 1];
    return psi;
}

std::vector<SpikeEvent>
NeoDetector::detect(const std::vector<double> &trace) const
{
    if (trace.size() < 3)
        return {};
    std::vector<double> psi = energy(trace);

    // NEO output is one-sided; threshold at a multiple of its mean
    // (the conventional choice: spikes lift psi orders of magnitude
    // above the noise energy).
    double mean = 0.0;
    for (double v : psi)
        mean += v;
    mean /= static_cast<double>(psi.size());
    double threshold = _config.thresholdSigmas * std::max(mean, 1e-12);

    return pickPeaks(psi, trace, threshold, /*negative_going=*/false,
                     _config.refractorySamples);
}

} // namespace mindful::signal
