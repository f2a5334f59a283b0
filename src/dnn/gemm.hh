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
 * with A the weight matrix and B either the im2col patch matrix
 * (convolution) or the input vector (dense, n = 1).
 *
 * Determinism contract (docs/performance.md): every output element
 * accumulates its k products **sequentially in ascending k order**
 * into one scalar, exactly like the retained naive loops, and the
 * product runs serially on the calling thread. The result is
 * therefore bit-identical to the naive reference and across any
 * `--threads` value.
 *
 * Register blocking (n > 1) reorders nothing either: the AVX2 kernel
 * computes kRowBlock x kColBlock tiles — kRowBlock rows of A against
 * one kColBlock-column segment of B in 2 * kRowBlock vector
 * accumulators — so each B load feeds kRowBlock rows, and the k loop
 * stays innermost. Column tiles are the outer loop, so one
 * k x kColBlock strip of B stays cache-resident while every row block
 * consumes it. Rows past the last full block, and columns past the
 * last full tile, take the one-row code, which is also all the scalar
 * and NEON tiers run. Every element is still one ascending-k chain,
 * whichever code computes it.
 *
 * No product is split across threads: every speech-decoder layer at
 * 256 channels is under 2 M multiply-adds (MLP L0, the largest, is
 * 1.57 M), well below what a pool hand-off plus re-streaming B per
 * shard would pay back (docs/performance.md).
 *
 * The row-range body is runtime-dispatched over SIMD tiers
 * (base/cpu.hh: scalar always, AVX2/NEON when compiled in and the
 * host supports them; `MINDFUL_SIMD=` pins one). The vector kernels
 * honor the same contract — lanes hold distinct output elements, each
 * still a single ascending-k chain with unfused multiply/add — so the
 * dispatch choice never changes a bit of output
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
 * Number of rows (the k extent) of the im2col patch matrix for a
 * convolution with the given input-channel count and kernel size.
 */
std::size_t im2colRows(std::size_t in_channels, std::size_t kernel_h,
                       std::size_t kernel_w);

/**
 * Words of column-mask scratch im2col needs: one per output position
 * for each of the kernel_w kernel columns.
 */
std::size_t im2colMaskWords(std::size_t kernel_w, std::size_t out_h,
                            std::size_t out_w);

/**
 * Pack a contiguous (channels, in_h, in_w) input into the im2col
 * patch matrix @p patches of shape [channels * kh * kw] x
 * [out_h * out_w] (row-major, caller-allocated): row
 * (ic*kh + ky)*kw + kx, column oy*out_w + ox holds
 * input[ic][oy*stride + ky - pad_h][ox*stride + kx - pad_w], or +0.0f
 * where that index falls outside the input (zero padding). Row order
 * matches Conv2dLayer's [oc][ic][kh][kw] weight layout, so the weight
 * buffer is usable as the GEMM A matrix unchanged.
 *
 * Boundary handling is hoisted out of the inner loop. A stride-1 tap
 * whose output width equals the input width (every "same"-padded
 * stride-1 conv) is the input plane shifted by a constant offset, so
 * its patch row is one branch-free pass over the valid rows,
 * patch[j] = bits(input[j + offset]) & mask_kx[j], with zeroed
 * out-of-range rows before and after it. The column mask of tap kx
 * zeroes the positions whose column reads padding (wrapped across a
 * row end); it is built once per call, for all channels, in the
 * caller's @p col_masks scratch of im2colMaskWords(kernel_w, out_h,
 * out_w) words. Every other tap packs row by row: a zero head, a
 * contiguous/strided copy of the valid span, and a zero tail.
 */
void im2col(const float *input, std::size_t channels, std::size_t in_h,
            std::size_t in_w, std::size_t kernel_h, std::size_t kernel_w,
            std::size_t stride, std::size_t pad_h, std::size_t pad_w,
            std::size_t out_h, std::size_t out_w, float *patches,
            std::uint32_t *col_masks);

} // namespace mindful::dnn::gemm

#endif // MINDFUL_DNN_GEMM_HH
