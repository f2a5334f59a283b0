/**
 * @file
 * The SoC-independent side of a computation-centric design point
 * (paper Secs. 5.3 and 6).
 *
 * Scaling the decoder to n' active channels fixes its per-layer MAC
 * census (Eq. 10), the per-layer output volumes a partition cut may
 * transmit (Sec. 6.1) and its weight count (Sec. 6.2). The
 * accelerator lower bound (Eqs. 11-15) of any prefix then depends
 * only on the MAC technology and the deadline. None of this depends
 * on the implant, so a figure sweep over SoCs, optimization ladders
 * and channel scans sizes each distinct point once through a
 * DnnCostMemo it owns, and a serve::QueryEngine sizes each distinct
 * (decoder, n') of its misses once through one memo per decoder
 * family, each behind its own lock.
 */

#ifndef MINDFUL_CORE_DNN_COST_HH
#define MINDFUL_CORE_DNN_COST_HH

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "accel/lower_bound.hh"
#include "dnn/network.hh"

namespace mindful::core {

/** Builds the decoder DNN scaled for a given channel count. */
using ModelBuilder = std::function<dnn::Network(std::uint64_t channels)>;

/** What the Fig. 10-12 studies need to know about one scaled DNN. */
struct DnnFacts
{
    /** Per-layer MAC census (Eq. 10). */
    std::vector<dnn::MacCensus> census;

    /** Per-layer output element count (partition-cut volumes). */
    std::vector<std::uint64_t> outputElements;

    /** Trainable parameters (model size, Sec. 6.2). */
    std::uint64_t totalWeights = 0;
};

/** The facts of @p network, which must have at least one layer. */
DnnFacts dnnFacts(const dnn::Network &network);

/**
 * Best accelerator bound (Eqs. 11-15) for the first @p layers layers
 * of @p census with @p mac units and one inference per @p deadline.
 */
accel::AcceleratorBound prefixBound(std::span<const dnn::MacCensus> census,
                                    std::size_t layers,
                                    const accel::MacUnitParams &mac,
                                    Time deadline);

/**
 * dnnFacts and prefixBound memoized per active-channel count for one
 * model family. A sweep owns one for the length of one table build
 * and lends it to every model it evaluates. The memo is not
 * synchronized: a sweep that shares it runs serially, and a
 * serve::QueryEngine holds each of its memos under a mutex.
 */
class DnnCostMemo
{
  public:
    explicit DnnCostMemo(ModelBuilder builder);

    /** Facts of the model scaled for @p active_channels; the
     *  reference stays valid for the memo's lifetime. */
    const DnnFacts &facts(std::uint64_t active_channels);

    /** prefixBound of the model scaled for @p active_channels. */
    accel::AcceleratorBound bound(std::uint64_t active_channels,
                                  std::size_t layers,
                                  const accel::MacUnitParams &mac,
                                  Time deadline);

    /** Distinct active-channel counts sized so far. */
    std::size_t size() const { return _entries.size(); }

    /** Whether @p active_channels is already sized. */
    bool contains(std::uint64_t active_channels) const
    {
        return _entries.contains(active_channels);
    }

  private:
    struct Bound
    {
        std::size_t layers = 0;
        Time macTime;
        Power macPower;
        Time deadline;
        accel::AcceleratorBound bound;
    };

    struct Entry
    {
        DnnFacts facts;
        std::vector<Bound> bounds; //!< a handful: full and cut, per MAC
    };

    Entry &entry(std::uint64_t active_channels);

    ModelBuilder _builder;
    std::unordered_map<std::uint64_t, Entry> _entries;
};

} // namespace mindful::core

#endif // MINDFUL_CORE_DNN_COST_HH
