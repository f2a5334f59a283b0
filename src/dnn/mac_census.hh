/**
 * @file
 * MAC census: the f_MAC decomposition of Eq. 10 / Fig. 8.
 *
 * Every DNN layer decomposes into #MAC_op independent
 * multiply-accumulate sequences, each MAC_seq accumulation steps
 * long. The paper's examples (Fig. 8):
 *
 *  - matrix-vector (dense) layer W[out x in] * x: #MAC_op = out rows,
 *    MAC_seq = in accumulations per row;
 *  - convolution: #MAC_op = input spatial size / kernel size,
 *    MAC_seq = output size * number of kernels.
 *
 * In both cases #MAC_op * MAC_seq equals the layer's total MAC count,
 * which is the invariant this struct maintains.
 */

#ifndef MINDFUL_DNN_MAC_CENSUS_HH
#define MINDFUL_DNN_MAC_CENSUS_HH

#include <cstdint>
#include <span>

namespace mindful::dnn {

/** Per-layer MAC decomposition. */
struct MacCensus
{
    /** Number of independent (parallelizable) MAC sequences. */
    std::uint64_t macOp = 0;

    /** Accumulation steps per sequence. */
    std::uint64_t macSeq = 0;

    /** Total multiply-accumulate operations in the layer; saturates
     *  at UINT64_MAX rather than wrapping on absurd inputs. */
    std::uint64_t
    totalMacs() const
    {
        if (macOp != 0 && macSeq > UINT64_MAX / macOp)
            return UINT64_MAX;
        return macOp * macSeq;
    }

    /** True for layers that perform no MACs (ReLU, pooling, ...). */
    bool
    empty() const
    {
        return macOp == 0 || macSeq == 0;
    }
};

/** Sum of total MACs over a census list. */
std::uint64_t totalMacs(std::span<const MacCensus> census);

/** Largest #MAC_op over a census list (the Eq. 12 cap). */
std::uint64_t maxMacOp(std::span<const MacCensus> census);

} // namespace mindful::dnn

#endif // MINDFUL_DNN_MAC_CENSUS_HH
