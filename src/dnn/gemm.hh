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
 * into one scalar, exactly like the retained naive loops, and work is
 * sharded over output rows only — no cross-shard reduction exists. The
 * result is therefore bit-identical to the naive reference and across
 * any `--threads` value.
 *
 * Register blocking (n > 1) reorders nothing either: the AVX2 kernel
 * computes kRowBlock x kColBlock tiles — kRowBlock rows of A against
 * one kColBlock-column segment of B in 2 * kRowBlock vector
 * accumulators — so each B load feeds kRowBlock rows, and the k loop
 * stays innermost. Column tiles are the outer loop, so one
 * k x kColBlock strip of B stays cache-resident while every row block
 * of the shard consumes it. Rows past the last full block, and
 * columns past the last full tile, take the one-row code, which is
 * also all the scalar and NEON tiers run. Every element is still one
 * ascending-k chain, whichever code computes it.
 *
 * Sharding hands out whole kRowBlock-row blocks, and only when each
 * shard gets at least kMinShardMacs of work (rowShards). The rule is
 * the same for GEMV (n == 1) and the column-tiled path: a shard pays
 * a pool hand-off and, past n == 1, re-streams the whole B matrix,
 * so every speech-decoder GEMM costs more CPU
 * split than whole. The floor keeps the MLP(256) and DN-CNN(256)
 * layers whole and splits only products as large as MLP(1024)'s
 * 25 M-MAC input layer (docs/performance.md, "Shard floor").
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
 * latency. Every path shards in whole blocks on every tier.
 */
inline constexpr std::size_t kRowBlock = 4;

/**
 * Minimum MACs per shard: shards = min(exec::kDefaultShards,
 * ceil(m / kRowBlock), macs / kMinShardMacs). The value comes from
 * bench/shard_sweep's CPU + wall sweep over the speech-MLP dense and
 * DN-CNN conv shapes (docs/performance.md, "Shard floor").
 */
inline constexpr std::uint64_t kMinShardMacs = 1u << 22;

/** Half-open output-row range of one shard. */
struct RowRange
{
    std::size_t begin;
    std::size_t end;
};

/**
 * Shard count for a product with @p m output rows and @p macs
 * multiply-adds under the kMinShardMacs floor; 1 means run inline.
 * The one shard rule of biasGemm.
 */
std::size_t rowShards(std::size_t m, std::uint64_t macs);

/**
 * Rows of shard @p shard out of @p shards for an @p m-row product:
 * a near-even split of whole kRowBlock blocks, the last clipped to m.
 * Depends only on its arguments, so the decomposition is fixed.
 */
RowRange rowShard(std::size_t m, std::size_t shards, std::size_t shard);

/**
 * C = epilogue(A * B + bias), all matrices row-major and contiguous:
 * A is m x k, B is k x n, C is m x n, bias has m entries (may be
 * nullptr for none). Shards rows over exec::parallelFor in
 * kRowBlock blocks of at least kMinShardMacs each (rowShards);
 * records dnn.gemm.* metrics.
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
