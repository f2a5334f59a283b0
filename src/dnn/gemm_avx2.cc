/**
 * @file
 * AVX2 row-range kernel of the GEMM dispatch tier.
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

#include "dnn/gemm.hh"

namespace mindful::dnn::gemm::detail {
namespace {

/**
 * In-register 8x8 transpose: on return r[j] lane l holds the input
 * r[l] element j (column j of the block across the 8 source rows).
 */
inline void
transpose8(__m256 r[8])
{
    __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
    __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
    __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
    __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
    __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
    __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
    __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
    __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
    __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
    __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
    __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
    __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
    __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
    __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
    __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
    __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
    r[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
    r[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
    r[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
    r[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
    r[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
    r[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
    r[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
    r[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}

/**
 * GEMV (n == 1): vectorized *across output rows*. An 8-row panel
 * keeps one accumulator lane per row; each 8-wide k step loads a
 * contiguous 8-float segment from all 8 weight rows, transposes the
 * block in registers, and adds the 8 k terms one at a time with the
 * matching x[kk + j] broadcast — so lane l's chain is exactly
 * bias[row+l] + a[row+l][0]*x[0] + a[row+l][1]*x[1] + ..., the naive
 * order. k and row tails finish in scalar chains.
 */
void
gemvAvx2(std::size_t k, const float *a, const float *x,
         const float *bias, float *c, std::size_t row_begin,
         std::size_t row_end, bool relu)
{
    std::size_t row = row_begin;
    for (; row + 8 <= row_end; row += 8) {
        const float *panel = a + row * k;
        __m256 acc = bias != nullptr ? _mm256_loadu_ps(bias + row)
                                     : _mm256_setzero_ps();
        std::size_t kk = 0;
        for (; kk + 8 <= k; kk += 8) {
            __m256 block[8];
            for (std::size_t l = 0; l < 8; ++l)
                block[l] = _mm256_loadu_ps(panel + l * k + kk);
            transpose8(block);
            for (std::size_t j = 0; j < 8; ++j) {
                __m256 xv = _mm256_broadcast_ss(x + kk + j);
                acc = _mm256_add_ps(acc, _mm256_mul_ps(block[j], xv));
            }
        }
        alignas(32) float lanes[8];
        _mm256_store_ps(lanes, acc);
        for (std::size_t l = 0; l < 8; ++l) {
            float s = lanes[l];
            const float *arow = panel + l * k;
            for (std::size_t kt = kk; kt < k; ++kt)
                s += arow[kt] * x[kt];
            c[row + l] = relu ? std::max(s, 0.0f) : s;
        }
    }
    for (; row < row_end; ++row) {
        const float *arow = a + row * k;
        float s = bias != nullptr ? bias[row] : 0.0f;
        for (std::size_t kt = 0; kt < k; ++kt)
            s += arow[kt] * x[kt];
        c[row] = relu ? std::max(s, 0.0f) : s;
    }
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
    if (n == 1) {
        gemvAvx2(k, a, b, bias, c, row_begin, row_end, relu);
        return;
    }

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

} // namespace mindful::dnn::gemm::detail
