/**
 * @file
 * AVX2 kernels of the GEMM dispatch tier: the row-range GEMM and the
 * packed-panel GEMV.
 *
 * Compiled with `-mavx2 -ffp-contract=off` (src/dnn/CMakeLists.txt)
 * and only ever called after base::activeSimdIsa() confirmed the
 * host executes AVX2. Bit-exactness discipline (gemm_kernels.hh):
 * lanes hold distinct output elements, every element's k products
 * accumulate in ascending k order in one chain, and multiply/add are
 * separate instructions — `_mm256_add_ps(acc, _mm256_mul_ps(..))`,
 * never an FMA, so rounding matches the scalar reference exactly.
 */

#include "dnn/gemm_kernels.hh"

#include <immintrin.h>

#include <algorithm>
#include <utility>

#include "base/compiler.hh"
#include "dnn/gemm.hh"

namespace mindful::dnn::gemm::detail {
namespace {

/** Panels one pass of packedGemvAvx2 keeps in flight. */
constexpr std::size_t kPanelsInFlight = 4;

/**
 * Lane mask of a panel with @p rows real rows: all ones in lanes
 * [0, rows), zero in the padding lanes.
 */
inline __m256i
rowMask(std::size_t rows)
{
    return _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(rows)),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/**
 * Panels first + P of a packed GEMV, one ymm accumulator per panel.
 * Each k step broadcasts x[k] once and adds one contiguous 8-float
 * load per panel, so lane l of panel p holds the chain
 * bias[r] + W[r][0] * x[0] + W[r][1] * x[1] + ... of row
 * r = (first + p) * 8 + l. Bias loads and output stores are masked to
 * the real rows, so the last panel needs no scalar tail.
 *
 * Every panel is spelled as a pack expansion over P, so each
 * accumulator is indexed by a constant and GCC keeps them all in
 * registers; indexed by a loop counter, GCC 12 stored three of four
 * back to the stack on every k step.
 */
template <std::size_t... P>
inline void
panelPass(std::index_sequence<P...>, std::size_t m, std::size_t k,
          const float *panels, const float *x, const float *bias, float *y,
          std::size_t first)
{
    static_assert(kPanelRows == 8, "one panel is one ymm register");
    const std::size_t row[] = {(first + P) * kPanelRows...};
    const __m256i mask[] = {rowMask(std::min(kPanelRows, m - row[P]))...};
    const float *const w[] = {panels + row[P] * k...};
    __m256 acc[] = {_mm256_maskload_ps(bias + row[P], mask[P])...};
    for (std::size_t kk = 0; kk < k; ++kk) {
        const __m256 xv = _mm256_broadcast_ss(x + kk);
        ((acc[P] = _mm256_add_ps(
              acc[P],
              _mm256_mul_ps(_mm256_loadu_ps(w[P] + kk * kPanelRows), xv))),
         ...);
    }
    (_mm256_maskstore_ps(y + row[P], mask[P], acc[P]), ...);
}

/**
 * One row of C from column @p col on: 16-wide tiles as two 8-lane
 * accumulators, then an 8-wide tile and scalar chains for the tail.
 * maxps(0, acc) keeps acc for -0.0 and NaN inputs — the same element
 * std::max(acc, 0.0f) returns — so the ReLU epilogue is bit-identical
 * to the scalar store.
 */
void
rowAvx2(std::size_t n, std::size_t k, const float *a, const float *b,
        const float *bias, float *c, std::size_t row, std::size_t col,
        bool relu)
{
    const __m256 zero = _mm256_setzero_ps();
    const float *arow = a + row * k;
    float *crow = c + row * n;
    const float bias_v = bias != nullptr ? bias[row] : 0.0f;
    const __m256 biasv = _mm256_set1_ps(bias_v);

    for (; col + 16 <= n; col += 16) {
        __m256 acc0 = biasv;
        __m256 acc1 = biasv;
        const float *bcol = b + col;
        for (std::size_t kk = 0; kk < k; ++kk) {
            const __m256 av = _mm256_broadcast_ss(arow + kk);
            const float *brow = bcol + kk * n;
            acc0 = _mm256_add_ps(
                acc0, _mm256_mul_ps(av, _mm256_loadu_ps(brow)));
            acc1 = _mm256_add_ps(
                acc1, _mm256_mul_ps(av, _mm256_loadu_ps(brow + 8)));
        }
        if (relu) {
            acc0 = _mm256_max_ps(zero, acc0);
            acc1 = _mm256_max_ps(zero, acc1);
        }
        _mm256_storeu_ps(crow + col, acc0);
        _mm256_storeu_ps(crow + col + 8, acc1);
    }
    for (; col + 8 <= n; col += 8) {
        __m256 acc = biasv;
        const float *bcol = b + col;
        for (std::size_t kk = 0; kk < k; ++kk) {
            const __m256 av = _mm256_broadcast_ss(arow + kk);
            acc = _mm256_add_ps(
                acc, _mm256_mul_ps(av, _mm256_loadu_ps(bcol + kk * n)));
        }
        if (relu)
            acc = _mm256_max_ps(zero, acc);
        _mm256_storeu_ps(crow + col, acc);
    }
    for (; col < n; ++col) {
        float acc = bias_v;
        for (std::size_t kk = 0; kk < k; ++kk)
            acc += arow[kk] * b[kk * n + col];
        crow[col] = relu ? std::max(acc, 0.0f) : acc;
    }
}

/**
 * One kRowBlock x 16 tile of C at (@p row, @p col): 2 * kRowBlock
 * accumulators, so the two B loads of each k step feed kRowBlock
 * rows and enough independent add chains are in flight to hide the
 * add latency. Each lane is still one element's ascending-k chain.
 */
void
tileAvx2(std::size_t n, std::size_t k, const float *a, const float *b,
         const float *bias, float *c, std::size_t row, std::size_t col,
         bool relu)
{
    __m256 acc0[kRowBlock];
    __m256 acc1[kRowBlock];
    for (std::size_t r = 0; r < kRowBlock; ++r) {
        acc0[r] = _mm256_set1_ps(bias != nullptr ? bias[row + r] : 0.0f);
        acc1[r] = acc0[r];
    }
    const float *ablock = a + row * k;
    const float *bcol = b + col;
    for (std::size_t kk = 0; kk < k; ++kk) {
        const float *brow = bcol + kk * n;
        const __m256 b0 = _mm256_loadu_ps(brow);
        const __m256 b1 = _mm256_loadu_ps(brow + 8);
        for (std::size_t r = 0; r < kRowBlock; ++r) {
            const __m256 av = _mm256_broadcast_ss(ablock + r * k + kk);
            acc0[r] = _mm256_add_ps(acc0[r], _mm256_mul_ps(av, b0));
            acc1[r] = _mm256_add_ps(acc1[r], _mm256_mul_ps(av, b1));
        }
    }
    const __m256 zero = _mm256_setzero_ps();
    for (std::size_t r = 0; r < kRowBlock; ++r) {
        if (relu) {
            acc0[r] = _mm256_max_ps(zero, acc0[r]);
            acc1[r] = _mm256_max_ps(zero, acc1[r]);
        }
        float *out = c + (row + r) * n + col;
        _mm256_storeu_ps(out, acc0[r]);
        _mm256_storeu_ps(out + 8, acc1[r]);
    }
}

} // namespace

void
gemmRowRangeAvx2(std::size_t n, std::size_t k, const float *a,
                 const float *b, const float *bias, float *c,
                 std::size_t row_begin, std::size_t row_end, bool relu)
{
    // Column tiles outermost: one k x 16 strip of B stays
    // cache-resident while every full row block consumes it.
    const std::size_t block_end =
        row_begin + (row_end - row_begin) / kRowBlock * kRowBlock;
    const std::size_t tiled_cols = n / 16 * 16;
    for (std::size_t col = 0; col < tiled_cols; col += 16)
        for (std::size_t row = row_begin; row < block_end;
             row += kRowBlock)
            tileAvx2(n, k, a, b, bias, c, row, col, relu);
    for (std::size_t row = row_begin; row < row_end; ++row)
        rowAvx2(n, k, a, b, bias, c, row,
                row < block_end ? tiled_cols : 0, relu);
}

void
packedGemvAvx2(std::size_t m, std::size_t k, const float *panels,
               const float *x, const float *bias, float *y)
{
    const std::size_t panel_count = (m + kPanelRows - 1) / kPanelRows;
    const std::size_t grouped =
        panel_count / kPanelsInFlight * kPanelsInFlight;
    MINDFUL_RT_LOOP("dnn.gemv")
    for (std::size_t first = 0; first < grouped; first += kPanelsInFlight)
        panelPass(std::make_index_sequence<kPanelsInFlight>(), m, k, panels,
                  x, bias, y, first);
    // At most three panels are left; every MLP(256) layer leaves none
    // but the 40-row classifier, which leaves one.
    MINDFUL_RT_LOOP("dnn.gemv")
    for (std::size_t first = grouped; first < panel_count; ++first)
        panelPass(std::make_index_sequence<1>(), m, k, panels, x, bias, y,
                  first);
}

} // namespace mindful::dnn::gemm::detail
