/**
 * @file
 * Structured-sparsity kernels for channel-dropout inference.
 *
 * The paper's optimization sweeps (Fig. 13) shrink decoders by
 * dropping input channels; this module turns a dropout mask into
 * compute that is actually skipped instead of multiplied by zero.
 * Two representations cover the density range:
 *
 *  - PrunedColumns: the mask is structured (whole columns dead), so
 *    the surviving weight columns are packed once into a dense
 *    m x ka matrix and the input is gathered to match — the dense
 *    biasGemm then runs at the reduced k. Best when the surviving
 *    block is still dense.
 *  - SlabCsrMatrix: a k-slab CSR form (each slab is a [slab_begin,
 *    slab_end) band of the k axis with its own rowPtr/col/val
 *    arrays). Below kCsrDensityThreshold the per-nonzero bookkeeping
 *    beats streaming the zeros. Column indices are absolute k
 *    positions, stored ascending per row, so the multiply visits a
 *    row's nonzeros in ascending k order — the same single-chain
 *    accumulation order as the dense kernel.
 *
 * Exactness: both paths skip terms whose factor is exactly zero. An
 * IEEE-754 add of ±0 only changes an accumulator that is itself
 * exactly -0.0 (then -0 + (+0) = +0), which cannot arise from the
 * finite, non-zero random data the golden tests use — so outputs are
 * bit-identical to forwardNaive over the zero-masked input there, and
 * for any realistic signal (docs/performance.md#structured-sparsity).
 */

#ifndef MINDFUL_DNN_SPARSE_HH
#define MINDFUL_DNN_SPARSE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dnn/gemm.hh"

namespace mindful::dnn::sparse {

/** k-axis band width of one CSR slab (SNIG-style partitioning). */
inline constexpr std::size_t kSlabWidth = 256;

/**
 * Density (nnz / (m * k)) at or below which layers switch from the
 * column-pruned dense path to the CSR-slab kernel.
 */
inline constexpr double kCsrDensityThreshold = 0.25;

/**
 * Packed view of the columns that survive a structured mask: the
 * active column indices (ascending) and the m x activeCols() weight
 * matrix gathered from them. Feed gather()-ed inputs and packed()
 * to the dense biasGemm at the reduced k.
 */
class PrunedColumns {
  public:
    /**
     * Pack the columns of the m x k matrix @p a where
     * @p active_cols[col] != 0. @p active_cols has k entries.
     */
    static PrunedColumns fromDense(const float *a, std::size_t m,
                                   std::size_t k,
                                   const std::uint8_t *active_cols);

    std::size_t rows() const { return _rows; }
    std::size_t activeCols() const { return _active.size(); }
    const float *packed() const { return _packed.data(); }
    const std::vector<std::uint32_t> &activeIndices() const
    {
        return _active;
    }

    /** out[j] = x[active[j]] for j < activeCols(); x has k entries. */
    void gather(const float *x, float *out) const;

  private:
    std::size_t _rows = 0;
    std::vector<std::uint32_t> _active;
    std::vector<float> _packed;
};

/**
 * Slab-partitioned CSR matrix over an m x k dense weight matrix.
 * Construction drops masked columns and exact-zero entries; multiply
 * runs against the **full-k** right-hand side (column indices are
 * absolute), so no input gather is needed.
 */
class SlabCsrMatrix {
  public:
    /**
     * Compress the m x k matrix @p a. @p active_cols (k entries) may
     * be nullptr to keep every column; entries that are exactly 0.0f
     * are always dropped. @p slab_width bands the k axis.
     */
    static SlabCsrMatrix fromDense(const float *a, std::size_t m,
                                   std::size_t k,
                                   const std::uint8_t *active_cols,
                                   std::size_t slab_width = kSlabWidth);

    /**
     * C = epilogue(this * B + bias): B is k x n row-major (full k),
     * C is m x n, bias has m entries or is nullptr. Rows shard over
     * exec::parallelFor by biasGemm's rule (gemm::rowShards);
     * each output element accumulates its nonzeros in ascending k
     * order, so results are thread-count invariant.
     */
    void multiply(std::size_t n, const float *b, const float *bias,
                  float *c, gemm::Epilogue epilogue) const;

    std::size_t rows() const { return _rows; }
    std::size_t cols() const { return _cols; }
    std::size_t nnz() const { return _nnz; }
    std::size_t slabCount() const { return _slabs.size(); }

    /** nnz / (rows * cols) of the *original* dense extent. */
    double density() const
    {
        return _rows == 0 || _cols == 0
                   ? 0.0
                   : static_cast<double>(_nnz) /
                         (static_cast<double>(_rows) *
                          static_cast<double>(_cols));
    }

  private:
    struct Slab {
        std::size_t k_begin = 0;
        std::size_t k_end = 0;
        std::vector<std::uint32_t> row_ptr; // rows + 1 entries
        std::vector<std::uint32_t> col;     // absolute k index
        std::vector<float> val;
    };

    void multiplyRows(std::size_t n, const float *b, const float *bias,
                      float *c, bool relu, std::size_t row_begin,
                      std::size_t row_end) const;

    std::size_t _rows = 0;
    std::size_t _cols = 0;
    std::size_t _nnz = 0;
    std::vector<Slab> _slabs;
};

/**
 * Density of the m x k matrix @p a after masking: fraction of entries
 * that are non-zero AND in an active column. This is the number the
 * kCsrDensityThreshold comparison uses.
 */
double maskedDensity(const float *a, std::size_t m, std::size_t k,
                     const std::uint8_t *active_cols);

} // namespace mindful::dnn::sparse

#endif // MINDFUL_DNN_SPARSE_HH
