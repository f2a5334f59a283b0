#include "dnn/gemm.hh"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "base/compiler.hh"
#include "base/cpu.hh"
#include "base/logging.hh"
#include "dnn/gemm_kernels.hh"
#include "obs/collector.hh"
#include "obs/metrics.hh"

namespace mindful::dnn::gemm {
namespace detail {
namespace {

/**
 * Produce C rows [row_begin, row_end). One row of C is computed as
 * kColBlock-wide register tiles: the k loop runs innermost over a
 * contiguous segment of each B row, so B streams through cache line
 * by line while each output element still accumulates in ascending k
 * order into a single scalar — the bit-exactness guarantee.
 *
 * The scalar tier stays one row per tile. Its sixteen scalar
 * accumulators already fill the x86-64 register file, and each MAC is
 * two scalar instructions however B is reused, so a kRowBlock x 16
 * scalar tile only adds spills: measured at 2.1 GOP/s against this
 * loop's 5.7 on the fig-10 block-1 conv (one thread). Register
 * blocking pays only where one instruction covers a lane-width of
 * elements (gemm_avx2.cc).
 */
template <bool Relu>
void
gemmRowRange(std::size_t n, std::size_t k, const float *a, const float *b,
             const float *bias, float *c, std::size_t row_begin,
             std::size_t row_end)
{
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

void
packedGemvPortable(std::size_t m, std::size_t k, const float *panels,
                   const float *x, const float *bias, float *y)
{
    const std::size_t panel_count = (m + kPanelRows - 1) / kPanelRows;
    MINDFUL_RT_LOOP("dnn.gemv")
    for (std::size_t p = 0; p < panel_count; ++p) {
        const std::size_t row = p * kPanelRows;
        const std::size_t rows = std::min(kPanelRows, m - row);
        const float *panel = panels + row * k;
        float acc[kPanelRows] = {};
        std::copy_n(bias + row, rows, acc);
        for (std::size_t kk = 0; kk < k; ++kk) {
            const float xv = x[kk];
            const float *w = panel + kk * kPanelRows;
            for (std::size_t l = 0; l < kPanelRows; ++l)
                acc[l] += w[l] * xv;
        }
        std::copy_n(acc, rows, y + row);
    }
}

PackedGemvFn
dispatchPackedGemv()
{
    switch (activeSimdIsa()) {
#if defined(MINDFUL_HAVE_AVX2)
    // A 16-lane AVX-512 panel kernel measured no faster: the ten
    // inferences of a loop hop read the weights from L3.
    case SimdIsa::Avx2:
    case SimdIsa::Avx512:
        return &packedGemvAvx2;
#endif
    default:
        return &packedGemvPortable;
    }
}

RowRangeFn
dispatchKernel()
{
    switch (activeSimdIsa()) {
#if defined(MINDFUL_HAVE_AVX2)
    case SimdIsa::Avx2:
    // The avx512 tier's own kernel is the implicit-tap conv
    // (convGemm). Its plain products (pointwise and im2col convs) run
    // the AVX2 kernel; dense layers take dispatchPackedGemv.
    case SimdIsa::Avx512:
        return &gemmRowRangeAvx2;
#endif
#if defined(MINDFUL_HAVE_NEON)
    case SimdIsa::Neon:
        return &gemmRowRangeNeon;
#endif
    default:
        return &gemmRowRangeScalar;
    }
}

} // namespace detail

namespace {

/**
 * Run @p product, one m x n x k product, inside the dnn/gemm trace
 * span and count it in dnn.gemm.calls and dnn.gemm.macs.
 */
template <class Product>
void
recordProduct(std::size_t m, std::size_t n, std::size_t k,
              const Product &product)
{
    MINDFUL_ASSERT(m > 0 && n > 0 && k > 0,
                   "gemm dimensions must be positive");
    MINDFUL_TRACE_SPAN(span, "dnn", "gemm");
    span.arg("m", static_cast<std::uint64_t>(m))
        .arg("n", static_cast<std::uint64_t>(n))
        .arg("k", static_cast<std::uint64_t>(k));
    product();
    MINDFUL_METRIC_COUNT("dnn.gemm.calls", 1);
    MINDFUL_METRIC_COUNT("dnn.gemm.macs",
                         static_cast<std::uint64_t>(m) * n * k);
}

/** Views of the calling thread's conv scratch. */
struct ConvScratch
{
    float *floats;         //!< im2col patch matrix
    std::uint32_t *masks;  //!< im2col column masks
};

/**
 * Per-thread scratch for the im2col route of convGemm: grown to the
 * largest request this thread has made and never shrunk, so a
 * steady-state forward allocates and zero-fills nothing. Per thread
 * because a const layer may run on several threads at once; one thread
 * never has two conv products in flight (biasGemm runs on the calling
 * thread), so one set per thread suffices.
 */
ConvScratch
convScratch(std::size_t floats, std::size_t mask_words)
{
    thread_local std::vector<float> buffer;
    thread_local std::vector<std::uint32_t> masks;
    if (buffer.size() < floats)
        buffer.resize(floats);
    if (masks.size() < mask_words)
        masks.resize(mask_words);
    return {buffer.data(), masks.data()};
}

} // namespace

void
biasGemm(std::size_t m, std::size_t n, std::size_t k, const float *a,
         const float *b, const float *bias, float *c, Epilogue epilogue)
{
    MINDFUL_ASSERT(a != nullptr && b != nullptr && c != nullptr,
                   "gemm buffers must be non-null");
    recordProduct(m, n, k, [&] {
        detail::dispatchKernel()(n, k, a, b, bias, c, 0, m,
                                 epilogue == Epilogue::Relu);
    });
}

void
packedGemv(std::size_t m, std::size_t k, const float *panels,
           const float *x, const float *bias, float *y)
{
    MINDFUL_ASSERT(panels != nullptr && x != nullptr && bias != nullptr &&
                       y != nullptr,
                   "gemv buffers must be non-null");
    recordProduct(m, 1, k, [&] {
        detail::dispatchPackedGemv()(m, k, panels, x, bias, y);
    });
}

void
convGemm(std::size_t out_channels, const ConvGeometry &geometry,
         const float *weights, const float *input, const float *bias,
         float *c, Epilogue epilogue)
{
    MINDFUL_ASSERT(weights != nullptr && input != nullptr && c != nullptr,
                   "conv buffers must be non-null");
    const std::size_t n = geometry.positions();
    const std::size_t k = geometry.patchRows();

    // A pointwise conv's patch matrix is the input planes themselves.
    if (geometry.kernel_h == 1 && geometry.kernel_w == 1 &&
        geometry.stride == 1) {
        biasGemm(out_channels, n, k, weights, input, bias, c, epilogue);
        return;
    }
#if defined(MINDFUL_HAVE_AVX512)
    if (activeSimdIsa() == SimdIsa::Avx512 && geometry.shiftedTaps() &&
        geometry.kernel_h * geometry.kernel_w <= detail::kMaxImplicitTaps) {
        recordProduct(out_channels, n, k, [&] {
            detail::shiftedConvAvx512(out_channels, geometry, weights,
                                      input, bias, c,
                                      epilogue == Epilogue::Relu);
        });
        return;
    }
#endif
    const ConvScratch scratch =
        convScratch(k * n, detail::im2colMaskWords(geometry));
    detail::im2col(geometry, input, scratch.floats, scratch.masks);
    biasGemm(out_channels, n, k, weights, scratch.floats, bias, c,
             epilogue);
}

namespace detail {

ValidSpan
validSpan(std::ptrdiff_t shift, std::size_t stride, std::size_t in,
          std::size_t out)
{
    std::size_t lo = 0;
    if (shift < 0)
        lo = (static_cast<std::size_t>(-shift) + stride - 1) / stride;
    std::size_t hi = 0;
    const std::ptrdiff_t lim = static_cast<std::ptrdiff_t>(in) - shift;
    if (lim > 0)
        hi = std::min<std::size_t>(
            out, static_cast<std::size_t>(lim - 1) / stride + 1);
    return {std::min(lo, hi), hi};
}

std::size_t
im2colMaskWords(const ConvGeometry &geometry)
{
    return geometry.kernel_w * geometry.positions();
}

namespace {

/**
 * General tap packing, one patch-matrix row segment per output row:
 * zero head, contiguous (or strided) copy of the valid span, zero
 * tail; rows reading outside the input are all zero.
 */
void
packTapRows(const float *plane, std::size_t in_w, std::size_t stride,
            std::ptrdiff_t shift_y, std::ptrdiff_t shift_x, ValidSpan ys,
            ValidSpan xs, std::size_t out_h, std::size_t out_w,
            float *prow)
{
    for (std::size_t oy = 0; oy < out_h; ++oy) {
        float *dst = prow + oy * out_w;
        if (oy < ys.lo || oy >= ys.hi || xs.lo >= xs.hi) {
            std::fill(dst, dst + out_w, 0.0f);
            continue;
        }
        const float *src =
            plane + (static_cast<std::ptrdiff_t>(oy * stride) + shift_y) *
                        static_cast<std::ptrdiff_t>(in_w);
        std::fill(dst, dst + xs.lo, 0.0f);
        if (stride == 1) {
            std::copy(src + static_cast<std::ptrdiff_t>(xs.lo) + shift_x,
                      src + static_cast<std::ptrdiff_t>(xs.hi) + shift_x,
                      dst + xs.lo);
        } else {
            for (std::size_t ox = xs.lo; ox < xs.hi; ++ox)
                dst[ox] =
                    src[static_cast<std::ptrdiff_t>(ox * stride) + shift_x];
        }
        std::fill(dst + xs.hi, dst + out_w, 0.0f);
    }
}

/**
 * Column masks of the shifted taps: word j of the kx-th n-word block
 * is all ones where output column j % out_w of tap kx reads inside the
 * input and zero where it reads padding. One output row is built, then
 * doubled in place until the block is full, so no index is divided.
 */
void
buildColumnMasks(std::size_t in_w, std::size_t kernel_w, std::size_t pad_w,
                 std::size_t out_h, std::size_t out_w, std::uint32_t *masks)
{
    const std::size_t n = out_h * out_w;
    for (std::size_t kx = 0; kx < kernel_w; ++kx) {
        std::uint32_t *mask = masks + kx * n;
        const ValidSpan xs = validSpan(static_cast<std::ptrdiff_t>(kx) -
                                           static_cast<std::ptrdiff_t>(pad_w),
                                       1, in_w, out_w);
        for (std::size_t ox = 0; ox < out_w; ++ox)
            mask[ox] = ox >= xs.lo && ox < xs.hi ? ~0u : 0u;
        for (std::size_t filled = out_w; filled < n; filled *= 2)
            std::copy_n(mask, std::min(filled, n - filled), mask + filled);
    }
}

/**
 * Stride-1 tap with out_w == in_w: patch element j reads plane
 * element j + shift_y*in_w + shift_x, so the whole valid range
 * [first, last) is one contiguous pass that runs straight across row
 * ends. The tap's column mask zeroes the wrapped boundary columns in
 * the same pass: a masked lane comes out +0.0f whatever it read, NaN
 * and infinities included.
 */
void
packTapShifted(const float *plane, std::size_t in_w, std::ptrdiff_t shift_y,
               std::ptrdiff_t shift_x, ValidSpan ys, ValidSpan xs,
               std::size_t out_h, std::size_t out_w,
               const std::uint32_t *colmask, float *prow)
{
    const std::size_t n = out_h * out_w;
    if (ys.lo >= ys.hi || xs.lo >= xs.hi) {
        std::fill(prow, prow + n, 0.0f);
        return;
    }
    const std::size_t first = ys.lo * out_w + xs.lo;
    const std::size_t last = (ys.hi - 1) * out_w + xs.hi;
    const float *src =
        plane + (static_cast<std::ptrdiff_t>(first) +
                 shift_y * static_cast<std::ptrdiff_t>(in_w) + shift_x);
    const std::uint32_t *mask = colmask + first;
    float *dst = prow + first;
    std::fill(prow, dst, 0.0f);
    for (std::size_t j = 0; j < last - first; ++j)
        dst[j] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(src[j]) &
                                      mask[j]);
    std::fill(prow + last, prow + n, 0.0f);
}

void
packPatches(const ConvGeometry &g, const float *input, float *patches,
            std::uint32_t *col_masks)
{
    MINDFUL_ASSERT(input != nullptr, "im2col input buffer is null");
    MINDFUL_ASSERT(g.stride > 0, "im2col stride must be positive");
    MINDFUL_ASSERT(patches != nullptr, "im2col patch buffer is null");

    // Without mask scratch (the per-row reference) every tap packs
    // row by row.
    const bool shifted = col_masks != nullptr && g.shiftedTaps();
    const std::size_t n = g.positions();
    if (shifted)
        buildColumnMasks(g.in_w, g.kernel_w, g.pad_w, g.out_h, g.out_w,
                         col_masks);
    float *prow = patches;
    for (std::size_t ic = 0; ic < g.channels; ++ic) {
        const float *plane = input + ic * g.in_h * g.in_w;
        for (std::size_t ky = 0; ky < g.kernel_h; ++ky) {
            const std::ptrdiff_t shift_y =
                static_cast<std::ptrdiff_t>(ky) -
                static_cast<std::ptrdiff_t>(g.pad_h);
            const ValidSpan ys =
                validSpan(shift_y, g.stride, g.in_h, g.out_h);
            for (std::size_t kx = 0; kx < g.kernel_w; ++kx, prow += n) {
                const std::ptrdiff_t shift_x =
                    static_cast<std::ptrdiff_t>(kx) -
                    static_cast<std::ptrdiff_t>(g.pad_w);
                const ValidSpan xs =
                    validSpan(shift_x, g.stride, g.in_w, g.out_w);
                if (shifted)
                    packTapShifted(plane, g.in_w, shift_y, shift_x, ys, xs,
                                   g.out_h, g.out_w, col_masks + kx * n,
                                   prow);
                else
                    packTapRows(plane, g.in_w, g.stride, shift_y, shift_x,
                                ys, xs, g.out_h, g.out_w, prow);
            }
        }
    }
}

} // namespace

void
im2col(const ConvGeometry &geometry, const float *input, float *patches,
       std::uint32_t *col_masks)
{
    MINDFUL_ASSERT(col_masks != nullptr, "im2col mask scratch is null");
    packPatches(geometry, input, patches, col_masks);
}

void
im2colPerRow(const ConvGeometry &geometry, const float *input,
             float *patches)
{
    packPatches(geometry, input, patches, /*col_masks=*/nullptr);
}

} // namespace detail

} // namespace mindful::dnn::gemm
