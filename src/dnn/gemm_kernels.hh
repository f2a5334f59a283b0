/**
 * @file
 * Internal per-ISA kernel entry points of the GEMM dispatch tier.
 *
 * Each vector ISA contributes one row-range kernel, compiled in its
 * own translation unit with the matching target flags
 * (src/dnn/CMakeLists.txt adds gemm_avx2.cc with `-mavx2` on x86-64
 * and gemm_neon.cc on AArch64, both with `-ffp-contract=off`).
 * `gemm::biasGemm` selects one of them per call from
 * `base::activeSimdIsa()` and runs it over every row.
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

namespace mindful::dnn::gemm::detail {

/**
 * Produce C rows [row_begin, row_end) of
 * C[m x n] = epilogue(A[m x k] * B[k x n] + bias). Kernels branch
 * internally on n == 1 (GEMV layout) vs the column-tiled GEMM.
 * biasGemm passes the whole range [0, m); tests pass sub-ranges.
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

#if defined(MINDFUL_HAVE_AVX2)
/** 8-lane AVX2 kernel (gemm_avx2.cc), mul+add only (no FMA). */
void gemmRowRangeAvx2(std::size_t n, std::size_t k, const float *a,
                      const float *b, const float *bias, float *c,
                      std::size_t row_begin, std::size_t row_end,
                      bool relu);
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

/**
 * gemm::im2col with every tap packed row by row, never as one masked
 * shifted pass — the general path, callable so tests can byte-compare
 * the shifted taps against it.
 */
void im2colPerRow(const float *input, std::size_t channels,
                  std::size_t in_h, std::size_t in_w,
                  std::size_t kernel_h, std::size_t kernel_w,
                  std::size_t stride, std::size_t pad_h,
                  std::size_t pad_w, std::size_t out_h, std::size_t out_w,
                  float *patches);

} // namespace mindful::dnn::gemm::detail

#endif // MINDFUL_DNN_GEMM_KERNELS_HH
