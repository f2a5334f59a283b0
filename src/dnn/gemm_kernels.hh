/**
 * @file
 * Internal per-ISA kernel entry points of the GEMM dispatch tier.
 *
 * Each vector ISA contributes its kernels in its own translation unit
 * with the matching target flags (src/dnn/CMakeLists.txt adds
 * gemm_avx2.cc with `-mavx2` and gemm_avx512.cc with `-mavx512f` on
 * x86-64, and gemm_neon.cc on AArch64, all with `-ffp-contract=off`).
 * `gemm::biasGemm` selects a row-range kernel per call from
 * `base::activeSimdIsa()` (scalar, avx2, avx512 or neon; avx512 runs
 * the AVX2 one) and runs it over every row; `gemm::packedGemv` selects
 * a panel kernel the same way (AVX2 for avx2 and avx512, the portable
 * one for scalar and neon); `gemm::convGemm` runs the avx512 tier's
 * own kernel, the implicit-tap conv.
 *
 * Every kernel implements the same contract as the scalar reference
 * (gemm.cc): each output element accumulates its k products
 * **sequentially in ascending k order into a single scalar chain** —
 * vector lanes only ever hold *different* output elements, never
 * partial sums of one element, and multiply/add stay separate
 * instructions (no FMA). The result is therefore bit-identical to
 * `forwardNaive` on every ISA, which the dispatch tests and the
 * cross-`MINDFUL_SIMD` CSV comparisons enforce.
 *
 * Not installed API: include only from src/dnn internals and tests.
 */

#ifndef MINDFUL_DNN_GEMM_KERNELS_HH
#define MINDFUL_DNN_GEMM_KERNELS_HH

#include <cstddef>
#include <cstdint>

#include "dnn/gemm.hh"

namespace mindful::dnn::gemm::detail {

/**
 * Produce C rows [row_begin, row_end) of
 * C[m x n] = epilogue(A[m x k] * B[k x n] + bias) with the
 * column-tiled GEMM. biasGemm passes the whole range [0, m); tests
 * pass sub-ranges.
 */
using RowRangeFn = void (*)(std::size_t n, std::size_t k,
                            const float *a, const float *b,
                            const float *bias, float *c,
                            std::size_t row_begin, std::size_t row_end,
                            bool relu);

/** Portable scalar kernel (gemm.cc) — the dispatch floor. */
void gemmRowRangeScalar(std::size_t n, std::size_t k, const float *a,
                        const float *b, const float *bias, float *c,
                        std::size_t row_begin, std::size_t row_end,
                        bool relu);

/**
 * y = W x + bias over W [m x k] in kPanelRows-row panels
 * (gemm::packedIndex): the contract of gemm::packedGemv.
 */
using PackedGemvFn = void (*)(std::size_t m, std::size_t k,
                              const float *panels, const float *x,
                              const float *bias, float *y);

/**
 * Portable panel kernel (gemm.cc): kPanelRows scalar chains per panel,
 * the scalar and NEON tiers' GEMV.
 */
void packedGemvPortable(std::size_t m, std::size_t k, const float *panels,
                        const float *x, const float *bias, float *y);

#if defined(MINDFUL_HAVE_AVX2)
/** 8-lane AVX2 kernel (gemm_avx2.cc), mul+add only (no FMA). */
void gemmRowRangeAvx2(std::size_t n, std::size_t k, const float *a,
                      const float *b, const float *bias, float *c,
                      std::size_t row_begin, std::size_t row_end,
                      bool relu);

/**
 * AVX2 panel kernel (gemm_avx2.cc): one panel per ymm accumulator,
 * four panels in flight, mul+add only (no FMA).
 */
void packedGemvAvx2(std::size_t m, std::size_t k, const float *panels,
                    const float *x, const float *bias, float *y);
#endif

#if defined(MINDFUL_HAVE_AVX512)
/**
 * Most taps (kernel_h * kernel_w) shiftedConvAvx512 takes: it keeps
 * one lane mask and one offset per tap on the stack. Larger kernels
 * pack the patch matrix.
 */
inline constexpr std::size_t kMaxImplicitTaps = 64;

/**
 * C[m x positions()] = epilogue(A * patches + bias) for a conv whose
 * taps are all shifted taps (geometry.shiftedTaps(), at most
 * kMaxImplicitTaps of them), without a patch matrix: each B row is
 * read straight from its input plane with a masked load that yields
 * +0.0f exactly where im2col writes +0.0f.
 */
void shiftedConvAvx512(std::size_t m, const ConvGeometry &geometry,
                       const float *a, const float *input,
                       const float *bias, float *c, bool relu);
#endif

#if defined(MINDFUL_HAVE_NEON)
/** 4-lane NEON kernel (gemm_neon.cc), mul+add only (no FMA). */
void gemmRowRangeNeon(std::size_t n, std::size_t k, const float *a,
                      const float *b, const float *bias, float *c,
                      std::size_t row_begin, std::size_t row_end,
                      bool relu);
#endif

/**
 * Kernel for the dispatched ISA. Resolved per biasGemm call (one
 * relaxed atomic load inside activeSimdIsa), so tests and the bench
 * harnesses can retarget the tier mid-process via forceSimdIsa.
 */
RowRangeFn dispatchKernel();

/** Panel kernel for the dispatched ISA, resolved like dispatchKernel. */
PackedGemvFn dispatchPackedGemv();

/** Half-open range of output positions whose input index is valid. */
struct ValidSpan
{
    std::size_t lo;
    std::size_t hi;
};

/**
 * Output positions o in [0, out) whose input index o*stride + shift
 * lies in [0, in); empty spans have lo == hi.
 */
ValidSpan validSpan(std::ptrdiff_t shift, std::size_t stride,
                    std::size_t in, std::size_t out);

/**
 * Words of column-mask scratch im2col needs: one per output position
 * for each of the kernel_w kernel columns.
 */
std::size_t im2colMaskWords(const ConvGeometry &geometry);

/**
 * Pack a contiguous (channels, in_h, in_w) input into the im2col
 * patch matrix @p patches of shape patchRows() x positions()
 * (row-major, caller-allocated): row (ic*kh + ky)*kw + kx, column
 * oy*out_w + ox holds
 * input[ic][oy*stride + ky - pad_h][ox*stride + kx - pad_w], or +0.0f
 * where that index falls outside the input (zero padding). Row order
 * matches Conv2dLayer's [oc][ic][kh][kw] weight layout, so the weight
 * buffer is usable as the GEMM A matrix unchanged.
 *
 * Boundary handling is hoisted out of the inner loop. A shifted tap
 * (ConvGeometry::shiftedTaps) is the input plane read at a constant
 * offset, so its patch row is one branch-free pass over the valid
 * rows, patch[j] = bits(input[j + offset]) & mask_kx[j], with zeroed
 * out-of-range rows before and after it. The column mask of tap kx
 * zeroes the positions whose column reads padding (wrapped across a
 * row end); it is built once per call, for all channels, in the
 * caller's @p col_masks scratch of im2colMaskWords() words. Every
 * other tap packs row by row: a zero head, a contiguous/strided copy
 * of the valid span, and a zero tail.
 */
void im2col(const ConvGeometry &geometry, const float *input,
            float *patches, std::uint32_t *col_masks);

/**
 * im2col with every tap packed row by row, never as one masked
 * shifted pass — the general path, callable so tests can byte-compare
 * the shifted taps against it.
 */
void im2colPerRow(const ConvGeometry &geometry, const float *input,
                  float *patches);

} // namespace mindful::dnn::gemm::detail

#endif // MINDFUL_DNN_GEMM_KERNELS_HH
