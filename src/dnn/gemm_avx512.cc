/**
 * @file
 * AVX-512 kernel of the GEMM dispatch tier: the implicit-tap
 * convolution. The tier's plain products run the AVX2 row-range
 * kernel (gemm.cc, dispatchKernel).
 *
 * Compiled with `-mavx512f -ffp-contract=off` (src/dnn/CMakeLists.txt)
 * and only ever called after base::activeSimdIsa() confirmed the host
 * executes AVX-512F. Bit-exactness discipline (gemm_kernels.hh): lanes
 * hold distinct output elements, every element's k products
 * accumulate in ascending k order in one chain, and multiply/add are
 * separate instructions — `_mm512_add_ps(acc, _mm512_mul_ps(..))`,
 * never an FMA, so rounding matches the scalar reference exactly.
 *
 * The kernel computes 8 x 32 tiles of C in 16 zmm accumulators: per
 * k step two 16-lane B loads and eight A broadcasts feed 16 multiplies
 * and 16 adds, twice the AVX2 tile's work per B load.
 *
 * It runs a conv whose taps are all shifted taps
 * (ConvGeometry::shiftedTaps) without a patch matrix. B row
 * (ic, ky, kx) at output position j is the input plane ic read at
 * j + (ky - pad_h) * in_w + (kx - pad_w) wherever that position's row
 * and column read inside the map, and +0.0f elsewhere — exactly what
 * im2col writes. Each B vector is one masked load straight from the
 * plane; a masked-off lane reads no memory and yields +0.0f, so every
 * B value, product and chain equals the im2col + GEMM route's.
 */

#include "dnn/gemm_kernels.hh"

#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <utility>

namespace mindful::dnn::gemm::detail {
namespace {

/** Tile height: rows of C that share every B load. */
constexpr std::size_t kTileRows = 8;

/** Tile width: two 16-lane vectors of C columns. */
constexpr std::size_t kTileCols = 32;

/**
 * Store one accumulator row pair at @p out, after the ReLU epilogue
 * if asked. maxps(0, acc) keeps acc for -0.0 and NaN — the element
 * std::max(acc, 0.0f) returns — so it is bit-identical to the scalar
 * store. It is spelled as the all-lanes masked form because GCC 12's
 * unmasked _mm512_max_ps trips -Wmaybe-uninitialized on its own
 * undefined pass-through operand. @p lanes selects the columns to
 * write (bit l: column l); a half with no lane set is not addressed.
 */
inline void
storeRow(float *out, __m512 lo, __m512 hi, std::uint32_t lanes, bool relu)
{
    if (relu) {
        const __m512 zero = _mm512_setzero_ps();
        lo = _mm512_mask_max_ps(lo, 0xffff, zero, lo);
        hi = _mm512_mask_max_ps(hi, 0xffff, zero, hi);
    }
    if (lanes == ~0u) {
        _mm512_storeu_ps(out, lo);
        _mm512_storeu_ps(out + 16, hi);
        return;
    }
    _mm512_mask_storeu_ps(out, static_cast<__mmask16>(lanes), lo);
    if (lanes >> 16 != 0)
        _mm512_mask_storeu_ps(out + 16, static_cast<__mmask16>(lanes >> 16),
                              hi);
}

/** The two 16-lane halves of one 32-column B row segment. */
struct BRow
{
    __m512 lo;
    __m512 hi;
};

/**
 * C rows [row, row + rows) x the 32 columns at @p col, rows <=
 * kTileRows, from the k B row segments @p next_b returns in ascending
 * k order. Rows past @p rows repeat the last real row's weights and
 * bias and are never stored; @p store selects the columns written.
 * Each lane is one element's ascending-k chain.
 *
 * Every row is spelled as a pack expansion over R = 0..7, so each
 * accumulator is indexed by a constant and GCC keeps all 16 in
 * registers. Indexed by a loop counter they stay memory-resident, and
 * next to a masked-load builtin, which may read any memory, GCC stores
 * them back on every k step.
 */
template <class NextB, std::size_t... R>
void
tile(std::index_sequence<R...>, std::size_t n, std::size_t k,
     const float *a, const float *bias, float *c, std::size_t row,
     std::size_t rows, std::size_t col, std::uint32_t store, bool relu,
     NextB next_b)
{
    static_assert(sizeof...(R) == kTileRows);
    const float *const arow[] = {a + (row + std::min(R, rows - 1)) * k...};
    __m512 acc0[] = {_mm512_set1_ps(
        bias != nullptr ? bias[row + std::min(R, rows - 1)] : 0.0f)...};
    __m512 acc1[] = {acc0[R]...};
    for (std::size_t kk = 0; kk < k; ++kk) {
        const BRow b = next_b();
        ((acc0[R] = _mm512_add_ps(
              acc0[R], _mm512_mul_ps(_mm512_set1_ps(arow[R][kk]), b.lo)),
          acc1[R] = _mm512_add_ps(
              acc1[R], _mm512_mul_ps(_mm512_set1_ps(arow[R][kk]), b.hi))),
         ...);
    }
    ((R < rows ? storeRow(c + (row + R) * n + col, acc0[R], acc1[R], store,
                          relu)
               : void()),
     ...);
}

/**
 * Lanes l of the tile at @p col whose position col + l lies in
 * [lo, hi), as a bit set.
 */
std::uint32_t
laneRange(std::size_t lo, std::size_t hi, std::size_t col)
{
    auto below = [col](std::size_t end) -> std::uint32_t {
        if (end <= col)
            return 0u;
        const std::size_t lanes = end - col;
        return lanes >= kTileCols ? ~0u : (1u << lanes) - 1u;
    };
    return below(hi) & ~below(lo);
}

/**
 * Lanes whose output column (@p cols_lo for lanes 0-15, @p cols_hi for
 * 16-31) lies in the span @p xs, as a bit set.
 */
std::uint32_t
columnLanes(__m512i cols_lo, __m512i cols_hi, ValidSpan xs)
{
    const __m512i lo = _mm512_set1_epi32(static_cast<int>(xs.lo));
    const __m512i hi = _mm512_set1_epi32(static_cast<int>(xs.hi));
    const std::uint32_t low =
        _mm512_cmpge_epu32_mask(cols_lo, lo) &
        _mm512_cmplt_epu32_mask(cols_lo, hi);
    const std::uint32_t high =
        _mm512_cmpge_epu32_mask(cols_hi, lo) &
        _mm512_cmplt_epu32_mask(cols_hi, hi);
    return low | high << 16;
}

/** The taps of one 32-column tile of a shifted-tap conv. */
struct TileTaps
{
    /** Per tap ky * kernel_w + kx: the lanes that read inside the map. */
    std::uint32_t on[kMaxImplicitTaps];
    /**
     * Per tap: the byte offset from a plane's first element to the
     * tap's lane 0, modulo 2^64 (it is negative for the top and left
     * taps).
     */
    std::uintptr_t shift[kMaxImplicitTaps];
    std::size_t count;   //!< kernel_h * kernel_w
    std::uint32_t store; //!< lanes whose position is below n
};

} // namespace

void
shiftedConvAvx512(std::size_t m, const ConvGeometry &g, const float *a,
                  const float *input, const float *bias, float *c,
                  bool relu)
{
    const std::size_t w = g.in_w;
    const std::size_t n = g.positions();
    const std::size_t k = g.patchRows();

    // Each lane's output column in the current tile, advanced by
    // 32 mod w per tile, so no position is divided.
    alignas(64) std::uint32_t first_cols[kTileCols];
    for (std::size_t l = 0; l < kTileCols; ++l)
        first_cols[l] = static_cast<std::uint32_t>(l % w);
    __m512i cols_lo = _mm512_load_si512(first_cols);
    __m512i cols_hi = _mm512_load_si512(first_cols + 16);
    const __m512i width = _mm512_set1_epi32(static_cast<int>(w));
    const __m512i advance =
        _mm512_set1_epi32(static_cast<int>(kTileCols % w));

    // Lanes per kernel row and column of the current tile.
    std::uint32_t row_lanes[kMaxImplicitTaps] = {};
    std::uint32_t col_lanes[kMaxImplicitTaps] = {};
    TileTaps taps{};
    taps.count = g.kernel_h * g.kernel_w;
    for (std::size_t ky = 0, t = 0; ky < g.kernel_h; ++ky)
        for (std::size_t kx = 0; kx < g.kernel_w; ++kx, ++t)
            taps.shift[t] =
                static_cast<std::uintptr_t>(
                    (static_cast<std::ptrdiff_t>(ky) -
                     static_cast<std::ptrdiff_t>(g.pad_h)) *
                        static_cast<std::ptrdiff_t>(w) +
                    static_cast<std::ptrdiff_t>(kx) -
                    static_cast<std::ptrdiff_t>(g.pad_w)) *
                sizeof(float);

    const auto input_addr = reinterpret_cast<std::uintptr_t>(input);
    const std::uintptr_t plane_bytes = g.in_h * g.in_w * sizeof(float);
    for (std::size_t col = 0; col < n; col += kTileCols) {
        for (std::size_t ky = 0; ky < g.kernel_h; ++ky) {
            const ValidSpan ys = validSpan(
                static_cast<std::ptrdiff_t>(ky) -
                    static_cast<std::ptrdiff_t>(g.pad_h),
                1, g.in_h, g.out_h);
            row_lanes[ky] = laneRange(ys.lo * w, ys.hi * w, col);
        }
        for (std::size_t kx = 0; kx < g.kernel_w; ++kx)
            col_lanes[kx] = columnLanes(
                cols_lo, cols_hi,
                validSpan(static_cast<std::ptrdiff_t>(kx) -
                              static_cast<std::ptrdiff_t>(g.pad_w),
                          1, g.in_w, g.out_w));
        for (std::size_t ky = 0, t = 0; ky < g.kernel_h; ++ky)
            for (std::size_t kx = 0; kx < g.kernel_w; ++kx, ++t)
                taps.on[t] = row_lanes[ky] & col_lanes[kx];
        taps.store = laneRange(0, n, col);
        for (std::size_t row = 0; row < m; row += kTileRows) {
            // B row (ic, ky, kx) is one masked load per half from plane
            // ic at element offset col + (ky - pad_h) * in_w +
            // (kx - pad_w). That offset leaves the plane only for
            // masked-off lanes, so lane 0's address is formed in
            // integer arithmetic, the plane's address plus the offset
            // modulo 2^64: no pointer arithmetic leaves the input.
            std::uintptr_t plane = input_addr + col * sizeof(float);
            std::size_t tap = 0;
            tile(std::make_index_sequence<kTileRows>(), n, k, a, bias, c,
                 row, std::min(kTileRows, m - row), col, taps.store, relu,
                 [&] {
                     const std::uint32_t on = taps.on[tap];
                     const std::uintptr_t addr = plane + taps.shift[tap];
                     if (++tap == taps.count) {
                         tap = 0;
                         plane += plane_bytes;
                     }
                     return BRow{
                         _mm512_maskz_loadu_ps(
                             static_cast<__mmask16>(on),
                             reinterpret_cast<const void *>(addr)),
                         _mm512_maskz_loadu_ps(
                             static_cast<__mmask16>(on >> 16),
                             reinterpret_cast<const void *>(
                                 addr + 16 * sizeof(float)))};
                 });
        }

        cols_lo = _mm512_add_epi32(cols_lo, advance);
        cols_hi = _mm512_add_epi32(cols_hi, advance);
        cols_lo = _mm512_mask_sub_epi32(
            cols_lo, _mm512_cmpge_epu32_mask(cols_lo, width), cols_lo,
            width);
        cols_hi = _mm512_mask_sub_epi32(
            cols_hi, _mm512_cmpge_epu32_mask(cols_hi, width), cols_hi,
            width);
    }
}

} // namespace mindful::dnn::gemm::detail
