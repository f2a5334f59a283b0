#include "dnn/gemm.hh"

#include <algorithm>

#include "base/cpu.hh"
#include "base/logging.hh"
#include "dnn/gemm_kernels.hh"
#include "exec/parallel.hh"
#include "obs/collector.hh"
#include "obs/metrics.hh"

namespace mindful::dnn::gemm {
namespace detail {
namespace {

/**
 * Scalar GEMV (n == 1, the dense-layer shape): rows are processed in
 * panels of four so the four independent accumulator chains share
 * each x[kk] load and fill the scalar pipeline — the accumulation
 * *order per row* is exactly the naive dense loop, so results are
 * unchanged, only the instruction-level parallelism improves. This
 * (plus running inline, see biasGemm) is what keeps the n == 1 path
 * from ever losing to forwardNaive.
 */
template <bool Relu>
void
gemvPanels(std::size_t k, const float *a, const float *x,
           const float *bias, float *c, std::size_t row_begin,
           std::size_t row_end)
{
    std::size_t row = row_begin;
    for (; row + 4 <= row_end; row += 4) {
        const float *a0 = a + (row + 0) * k;
        const float *a1 = a + (row + 1) * k;
        const float *a2 = a + (row + 2) * k;
        const float *a3 = a + (row + 3) * k;
        float s0 = bias != nullptr ? bias[row + 0] : 0.0f;
        float s1 = bias != nullptr ? bias[row + 1] : 0.0f;
        float s2 = bias != nullptr ? bias[row + 2] : 0.0f;
        float s3 = bias != nullptr ? bias[row + 3] : 0.0f;
        for (std::size_t kk = 0; kk < k; ++kk) {
            const float xv = x[kk];
            s0 += a0[kk] * xv;
            s1 += a1[kk] * xv;
            s2 += a2[kk] * xv;
            s3 += a3[kk] * xv;
        }
        c[row + 0] = Relu ? std::max(s0, 0.0f) : s0;
        c[row + 1] = Relu ? std::max(s1, 0.0f) : s1;
        c[row + 2] = Relu ? std::max(s2, 0.0f) : s2;
        c[row + 3] = Relu ? std::max(s3, 0.0f) : s3;
    }
    for (; row < row_end; ++row) {
        const float *arow = a + row * k;
        float acc = bias != nullptr ? bias[row] : 0.0f;
        for (std::size_t kk = 0; kk < k; ++kk)
            acc += arow[kk] * x[kk];
        c[row] = Relu ? std::max(acc, 0.0f) : acc;
    }
}

/**
 * Produce C rows [row_begin, row_end). One row of C is computed as
 * kColBlock-wide register tiles: the k loop runs innermost over a
 * contiguous segment of each B row, so B streams through cache line
 * by line while each output element still accumulates in ascending k
 * order into a single scalar — the bit-exactness guarantee.
 */
template <bool Relu>
void
gemmRowRange(std::size_t n, std::size_t k, const float *a, const float *b,
             const float *bias, float *c, std::size_t row_begin,
             std::size_t row_end)
{
    if (n == 1) {
        gemvPanels<Relu>(k, a, b, bias, c, row_begin, row_end);
        return;
    }

    for (std::size_t row = row_begin; row < row_end; ++row) {
        const float *arow = a + row * k;
        float *crow = c + row * n;
        const float bias_v = bias ? bias[row] : 0.0f;

        std::size_t col = 0;
        for (; col + kColBlock <= n; col += kColBlock) {
            float acc[kColBlock];
            for (std::size_t j = 0; j < kColBlock; ++j)
                acc[j] = bias_v;
            const float *bcol = b + col;
            for (std::size_t kk = 0; kk < k; ++kk) {
                const float av = arow[kk];
                const float *brow = bcol + kk * n;
                for (std::size_t j = 0; j < kColBlock; ++j)
                    acc[j] += av * brow[j];
            }
            float *out = crow + col;
            for (std::size_t j = 0; j < kColBlock; ++j)
                out[j] = Relu ? std::max(acc[j], 0.0f) : acc[j];
        }

        if (col < n) {
            const std::size_t nb = n - col;
            float acc[kColBlock];
            for (std::size_t j = 0; j < nb; ++j)
                acc[j] = bias_v;
            const float *bcol = b + col;
            for (std::size_t kk = 0; kk < k; ++kk) {
                const float av = arow[kk];
                const float *brow = bcol + kk * n;
                for (std::size_t j = 0; j < nb; ++j)
                    acc[j] += av * brow[j];
            }
            float *out = crow + col;
            for (std::size_t j = 0; j < nb; ++j)
                out[j] = Relu ? std::max(acc[j], 0.0f) : acc[j];
        }
    }
}

} // namespace

void
gemmRowRangeScalar(std::size_t n, std::size_t k, const float *a,
                   const float *b, const float *bias, float *c,
                   std::size_t row_begin, std::size_t row_end, bool relu)
{
    if (relu)
        gemmRowRange<true>(n, k, a, b, bias, c, row_begin, row_end);
    else
        gemmRowRange<false>(n, k, a, b, bias, c, row_begin, row_end);
}

} // namespace detail

namespace {

/**
 * Kernel for the dispatched ISA. Resolved per biasGemm call (one
 * relaxed atomic load inside activeSimdIsa), so tests and the bench
 * harness can retarget the tier mid-process via forceSimdIsa.
 */
detail::RowRangeFn
dispatchKernel()
{
    switch (activeSimdIsa()) {
#if defined(MINDFUL_HAVE_AVX2)
    case SimdIsa::Avx2:
        return &detail::gemmRowRangeAvx2;
#endif
#if defined(MINDFUL_HAVE_NEON)
    case SimdIsa::Neon:
        return &detail::gemmRowRangeNeon;
#endif
    default:
        return &detail::gemmRowRangeScalar;
    }
}

} // namespace

void
biasGemm(std::size_t m, std::size_t n, std::size_t k, const float *a,
         const float *b, const float *bias, float *c, Epilogue epilogue)
{
    MINDFUL_ASSERT(m > 0 && n > 0 && k > 0,
                   "gemm dimensions must be positive");
    MINDFUL_ASSERT(a != nullptr && b != nullptr && c != nullptr,
                   "gemm buffers must be non-null");

    const std::uint64_t macs =
        static_cast<std::uint64_t>(m) * n * k;
    MINDFUL_TRACE_SPAN(span, "dnn", "gemm");
    span.arg("m", static_cast<std::uint64_t>(m))
        .arg("n", static_cast<std::uint64_t>(n))
        .arg("k", static_cast<std::uint64_t>(k));

    const bool relu = epilogue == Epilogue::Relu;
    const detail::RowRangeFn kernel = dispatchKernel();
    auto run = [&](std::size_t row_begin, std::size_t row_end) {
        kernel(n, k, a, b, bias, c, row_begin, row_end, relu);
    };

    // Shard over output rows only: no shard touches another shard's C
    // rows and there is no cross-shard reduction, so the decomposition
    // (and the thread count) cannot affect the result.
    std::size_t shards = 1;
    if (macs >= kParallelMacThreshold)
        shards = std::min<std::size_t>(exec::kDefaultShards, m);
    if (shards <= 1) {
        run(0, m);
    } else {
        // Shard instrumentation, resolved once outside the shard body:
        // a TraceSite (interned name) and a pre-registered counter
        // handle. Recording inside the body is lock- and
        // allocation-free — mindful-analyze certifies HotSpan and
        // CounterHandle::bump, so this needs no suppression.
        static const obs::TraceSite shard_site =
            obs::TraceCollector::global().site("dnn", "gemm.shard");
        static const obs::CounterHandle shard_rows =
            obs::MetricRegistry::global().counter("dnn.gemm.shard_rows");
        exec::parallelFor(
            shards,
            [&](std::size_t shard) {
                obs::HotSpan shard_span(shard_site);
                auto range = exec::shardRange(m, shards, shard);
                shard_span.setArg(range.end - range.begin);
                run(range.begin, range.end);
                shard_rows.bump(range.end - range.begin);
            },
            "dnn.gemm.shard");
    }

    MINDFUL_METRIC_COUNT("dnn.gemm.calls", 1);
    MINDFUL_METRIC_COUNT("dnn.gemm.macs", macs);
}

std::size_t
im2colRows(std::size_t in_channels, std::size_t kernel_h,
           std::size_t kernel_w)
{
    return in_channels * kernel_h * kernel_w;
}

void
im2col(const Tensor &input, std::size_t kernel_h, std::size_t kernel_w,
       std::size_t stride, std::size_t pad_h, std::size_t pad_w,
       std::size_t out_h, std::size_t out_w, float *patches)
{
    MINDFUL_ASSERT(input.rank() == 3, "im2col expects a rank-3 input");
    MINDFUL_ASSERT(stride > 0, "im2col stride must be positive");
    MINDFUL_ASSERT(patches != nullptr, "im2col patch buffer is null");

    const std::size_t channels = input.dim(0);
    const std::size_t in_h = input.dim(1);
    const std::size_t in_w = input.dim(2);
    const std::size_t n = out_h * out_w;
    const auto in_h_pd = static_cast<std::ptrdiff_t>(in_h);

    float *prow = patches;
    for (std::size_t ic = 0; ic < channels; ++ic) {
        for (std::size_t ky = 0; ky < kernel_h; ++ky) {
            for (std::size_t kx = 0; kx < kernel_w; ++kx, prow += n) {
                // This tap reads ix = ox*stride + shift; hoist the
                // valid ox span so the per-row work is zero-head,
                // contiguous (or strided) copy, zero-tail.
                const std::ptrdiff_t shift =
                    static_cast<std::ptrdiff_t>(kx) -
                    static_cast<std::ptrdiff_t>(pad_w);
                std::size_t ox_lo = 0;
                if (shift < 0)
                    ox_lo = (static_cast<std::size_t>(-shift) + stride -
                             1) /
                            stride;
                std::size_t ox_hi = 0;
                const std::ptrdiff_t lim =
                    static_cast<std::ptrdiff_t>(in_w) - shift;
                if (lim > 0)
                    ox_hi = std::min<std::size_t>(
                        out_w,
                        static_cast<std::size_t>(lim - 1) / stride + 1);
                ox_lo = std::min(ox_lo, ox_hi);

                for (std::size_t oy = 0; oy < out_h; ++oy) {
                    float *dst = prow + oy * out_w;
                    const std::ptrdiff_t iy =
                        static_cast<std::ptrdiff_t>(oy * stride + ky) -
                        static_cast<std::ptrdiff_t>(pad_h);
                    if (iy < 0 || iy >= in_h_pd || ox_lo >= ox_hi) {
                        std::fill(dst, dst + out_w, 0.0f);
                        continue;
                    }
                    const float *src = input.rowData(
                        ic, static_cast<std::size_t>(iy));
                    std::fill(dst, dst + ox_lo, 0.0f);
                    if (stride == 1) {
                        std::copy(src + static_cast<std::ptrdiff_t>(
                                            ox_lo) +
                                      shift,
                                  src + static_cast<std::ptrdiff_t>(
                                            ox_hi) +
                                      shift,
                                  dst + ox_lo);
                    } else {
                        for (std::size_t ox = ox_lo; ox < ox_hi; ++ox)
                            dst[ox] = src[static_cast<std::ptrdiff_t>(
                                              ox * stride) +
                                          shift];
                    }
                    std::fill(dst + ox_hi, dst + out_w, 0.0f);
                }
            }
        }
    }
}

} // namespace mindful::dnn::gemm
