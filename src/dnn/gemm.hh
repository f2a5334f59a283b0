/**
 * @file
 * im2col packing and cache-blocked GEMM for the DNN forward path.
 *
 * The paper's feasibility studies (Figs. 8-10) are validated by
 * actually executing the speech decoders, so the forward path is a
 * measured hot loop, not an analytical model. Conv2dLayer and
 * DenseLayer both lower onto the single kernel here:
 *
 *     C[m][n] = epilogue(sum_k A[m][k] * B[k][n] + bias[m])
 *
 * with A the weight matrix and B either the convolution's patch
 * matrix (convGemm) or the input vector (dense, n = 1, in the packed
 * panel layout of packedGemv).
 *
 * Determinism contract (docs/performance.md): every output element
 * accumulates its k products **sequentially in ascending k order**
 * into one scalar, exactly like the retained naive loops, and the
 * product runs serially on the calling thread. The result is
 * therefore bit-identical to the naive reference and across any
 * `--threads` value.
 *
 * Register blocking reorders nothing either: the AVX2 kernel
 * computes kRowBlock x kColBlock tiles — kRowBlock rows of A against
 * one kColBlock-column segment of B in 2 * kRowBlock vector
 * accumulators — so each B load feeds kRowBlock rows, and the k loop
 * stays innermost. Column tiles are the outer loop, so one
 * k x kColBlock strip of B stays cache-resident while every row block
 * consumes it. Rows past the last full block, and columns past the
 * last full tile, take the one-row code, which is also all the scalar
 * and NEON tiers run. Every element is still one ascending-k chain,
 * whichever code computes it. The avx512 tier runs this AVX2 kernel
 * for biasGemm; its own 8 x 32 tiles serve convGemm's implicit taps.
 *
 * Dense layers do not go through biasGemm: they store their weights
 * once in panels of kPanelRows rows, ordered by k inside a panel
 * (packedIndex), and packedGemv streams those panels. One contiguous
 * kPanelRows-float load per panel and k feeds kPanelRows output rows,
 * so the vector kernel needs no transpose and no scalar row tail; each
 * lane is still one row's ascending-k chain.
 *
 * No product is split across threads: every speech-decoder layer at
 * 256 channels is under 2 M multiply-adds (MLP L0, the largest, is
 * 1.57 M), well below what a pool hand-off plus re-streaming B per
 * shard would pay back (docs/performance.md).
 *
 * The row-range body and the packed GEMV are runtime-dispatched over
 * SIMD tiers (base/cpu.hh: scalar always, AVX2/AVX-512/NEON when
 * compiled in and the host supports them;
 * `MINDFUL_SIMD=scalar|avx2|avx512|neon` pins one). The vector
 * kernels honor the same contract — lanes hold distinct output
 * elements, each still a single ascending-k chain with unfused
 * multiply/add — so the dispatch choice never changes a bit of output
 * (docs/performance.md, "SIMD dispatch tier").
 */

#ifndef MINDFUL_DNN_GEMM_HH
#define MINDFUL_DNN_GEMM_HH

#include <cstddef>
#include <cstdint>

namespace mindful::dnn::gemm {

/** Element-wise transform fused into the GEMM output store. */
enum class Epilogue : std::uint8_t {
    None, //!< store the biased accumulation as-is
    Relu  //!< store max(acc, 0) — the DenseNet composite function
};

/**
 * Register-tile width of the blocked kernel: C is produced kColBlock
 * columns at a time, with the k loop innermost over a contiguous B
 * row segment. 16 floats = one 64-byte cache line.
 */
inline constexpr std::size_t kColBlock = 16;

/**
 * Register-tile height of the AVX2 kernel (n > 1): kRowBlock rows of
 * C share every B load of a kColBlock-wide tile. Four rows keep eight
 * independent accumulator chains in flight, enough to cover the add
 * latency.
 */
inline constexpr std::size_t kRowBlock = 4;

/** Rows per weight panel of packedGemv: one AVX2 register of lanes. */
inline constexpr std::size_t kPanelRows = 8;

/**
 * Floats a packed [rows x cols] weight matrix occupies: rows rounded
 * up to whole panels, the padding rows zero.
 */
constexpr std::size_t
packedSize(std::size_t rows, std::size_t cols)
{
    return (rows + kPanelRows - 1) / kPanelRows * kPanelRows * cols;
}

/**
 * Slot of weight (row, col) in a packed matrix of @p cols columns:
 * panel row / kPanelRows holds kPanelRows rows, stored k by k, so the
 * kPanelRows weights of one column sit next to each other.
 */
constexpr std::size_t
packedIndex(std::size_t row, std::size_t col, std::size_t cols)
{
    return row / kPanelRows * kPanelRows * cols + col * kPanelRows +
           row % kPanelRows;
}

/**
 * y = W x + bias for W [m x k] stored packed (packedIndex,
 * packedSize(m, k) floats), x of k and y and bias of m entries. Only
 * the m real rows of y are written. Each y[r] accumulates
 * bias[r] + W[r][0] * x[0] + W[r][1] * x[1] + ... in that order, so
 * the result is bit-identical to the row-major loop. Runs serially on
 * the calling thread inside the same dnn/gemm span and dnn.gemm.*
 * counters as biasGemm (n = 1).
 */
void packedGemv(std::size_t m, std::size_t k, const float *panels,
                const float *x, const float *bias, float *y);

/**
 * C = epilogue(A * B + bias), all matrices row-major and contiguous:
 * A is m x k, B is k x n, C is m x n, bias has m entries (may be
 * nullptr for none). Runs serially on the calling thread; records
 * dnn.gemm.* metrics.
 */
void biasGemm(std::size_t m, std::size_t n, std::size_t k,
              const float *a, const float *b, const float *bias, float *c,
              Epilogue epilogue = Epilogue::None);

/**
 * Geometry of one convolution lowered onto the GEMM: a contiguous
 * (channels, in_h, in_w) input, a kernel_h x kernel_w kernel moved by
 * @p stride, pad_h zero rows above and pad_w zero columns left of the
 * input, and an out_h x out_w output map per output channel.
 */
struct ConvGeometry
{
    std::size_t channels;
    std::size_t in_h;
    std::size_t in_w;
    std::size_t kernel_h;
    std::size_t kernel_w;
    std::size_t stride;
    std::size_t pad_h;
    std::size_t pad_w;
    std::size_t out_h;
    std::size_t out_w;

    /** Rows of the patch matrix, the GEMM's k: one per tap and channel. */
    std::size_t
    patchRows() const
    {
        return channels * kernel_h * kernel_w;
    }

    /** Columns of the patch matrix, the GEMM's n: output positions. */
    std::size_t
    positions() const
    {
        return out_h * out_w;
    }

    /**
     * Whether every tap is a shifted tap: stride 1 and an output as
     * wide as the input (every "same" stride-1 conv). Tap (ky, kx)'s
     * patch row is then the input plane read at the constant offset
     * (ky - pad_h) * in_w + (kx - pad_w), with the out-of-map
     * positions zeroed.
     */
    bool
    shiftedTaps() const
    {
        return stride == 1 && out_w == in_w;
    }
};

/**
 * One convolution as C = epilogue(W * patches(input) + bias): W is
 * the out_channels x patchRows() weight matrix in [oc][ic][kh][kw]
 * order, C the out_channels x positions() output, bias has
 * out_channels entries. Pointwise (1x1 stride-1) convs use the input
 * planes as B directly. On the avx512 tier shifted taps read B
 * straight from the input planes under lane masks; every other conv
 * packs the patch matrix with im2col into per-thread scratch and runs
 * biasGemm. All routes produce the same bits (the patch matrix holds
 * +0.0f wherever a masked load reads +0.0f). Records the dnn.gemm.*
 * metrics like biasGemm.
 */
void convGemm(std::size_t out_channels, const ConvGeometry &geometry,
              const float *weights, const float *input, const float *bias,
              float *c, Epilogue epilogue = Epilogue::None);

} // namespace mindful::dnn::gemm

#endif // MINDFUL_DNN_GEMM_HH
