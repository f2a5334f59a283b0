/**
 * @file
 * NEON (AArch64 Advanced SIMD) row-range kernel of the GEMM dispatch
 * tier; dense layers' GEMVs run the portable panel kernel (gemm.cc).
 * Compiled on AArch64 only (src/dnn/CMakeLists.txt). Same
 * bit-exactness discipline as the AVX2 kernel (gemm_kernels.hh):
 * lanes are distinct output elements, ascending-k single-chain
 * accumulation, and explicit `vaddq_f32(acc, vmulq_f32(..))` — never
 * `vmlaq_f32`, which compilers lower to fused FMLA on AArch64.
 */

#include "dnn/gemm_kernels.hh"

#include <arm_neon.h>

#include <algorithm>

namespace mindful::dnn::gemm::detail {
namespace {

/**
 * ReLU store matching std::max(acc, 0.0f) bit-for-bit: vmaxq picks
 * acc on equal-magnitude ±0.0 comparisons ordered this way, and the
 * vbslq fallback keeps NaN accumulators (scalar std::max returns the
 * first argument when the comparison is false).
 */
inline float32x4_t
reluNeon(float32x4_t acc)
{
    // acc < 0 ? 0 : acc — exactly the scalar std::max(acc, 0.0f):
    // -0.0 is not < 0 (keeps -0.0) and NaN compares false (keeps NaN).
    uint32x4_t neg = vcltq_f32(acc, vdupq_n_f32(0.0f));
    return vbslq_f32(neg, vdupq_n_f32(0.0f), acc);
}

} // namespace

void
gemmRowRangeNeon(std::size_t n, std::size_t k, const float *a,
                 const float *b, const float *bias, float *c,
                 std::size_t row_begin, std::size_t row_end, bool relu)
{
    for (std::size_t row = row_begin; row < row_end; ++row) {
        const float *arow = a + row * k;
        float *crow = c + row * n;
        const float bias_v = bias != nullptr ? bias[row] : 0.0f;
        const float32x4_t biasv = vdupq_n_f32(bias_v);

        std::size_t col = 0;
        for (; col + 8 <= n; col += 8) {
            float32x4_t acc0 = biasv;
            float32x4_t acc1 = biasv;
            const float *bcol = b + col;
            for (std::size_t kk = 0; kk < k; ++kk) {
                const float32x4_t av = vdupq_n_f32(arow[kk]);
                const float *brow = bcol + kk * n;
                acc0 = vaddq_f32(acc0, vmulq_f32(av, vld1q_f32(brow)));
                acc1 = vaddq_f32(acc1,
                                 vmulq_f32(av, vld1q_f32(brow + 4)));
            }
            if (relu) {
                acc0 = reluNeon(acc0);
                acc1 = reluNeon(acc1);
            }
            vst1q_f32(crow + col, acc0);
            vst1q_f32(crow + col + 4, acc1);
        }
        for (; col + 4 <= n; col += 4) {
            float32x4_t acc = biasv;
            const float *bcol = b + col;
            for (std::size_t kk = 0; kk < k; ++kk) {
                const float32x4_t av = vdupq_n_f32(arow[kk]);
                acc = vaddq_f32(acc,
                                vmulq_f32(av, vld1q_f32(bcol + kk * n)));
            }
            if (relu)
                acc = reluNeon(acc);
            vst1q_f32(crow + col, acc);
        }
        for (; col < n; ++col) {
            float acc = bias_v;
            for (std::size_t kk = 0; kk < k; ++kk)
                acc += arow[kk] * b[kk * n + col];
            crow[col] = relu ? std::max(acc, 0.0f) : acc;
        }
    }
}

} // namespace mindful::dnn::gemm::detail
