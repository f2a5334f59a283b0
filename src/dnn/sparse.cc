#include "dnn/sparse.hh"

#include <algorithm>

#include "base/logging.hh"
#include "exec/parallel.hh"
#include "obs/collector.hh"
#include "obs/metrics.hh"

namespace mindful::dnn::sparse {

PrunedColumns
PrunedColumns::fromDense(const float *a, std::size_t m, std::size_t k,
                         const std::uint8_t *active_cols)
{
    MINDFUL_ASSERT(a != nullptr && active_cols != nullptr,
                   "PrunedColumns inputs must be non-null");
    PrunedColumns out;
    out._rows = m;
    for (std::size_t col = 0; col < k; ++col)
        if (active_cols[col] != 0)
            out._active.push_back(static_cast<std::uint32_t>(col));
    out._packed.resize(m * out._active.size());
    float *dst = out._packed.data();
    for (std::size_t row = 0; row < m; ++row) {
        const float *arow = a + row * k;
        for (const std::uint32_t col : out._active)
            *dst++ = arow[col];
    }
    return out;
}

void
PrunedColumns::gather(const float *x, float *out) const
{
    for (std::size_t j = 0; j < _active.size(); ++j)
        out[j] = x[_active[j]];
}

SlabCsrMatrix
SlabCsrMatrix::fromDense(const float *a, std::size_t m, std::size_t k,
                         const std::uint8_t *active_cols,
                         std::size_t slab_width)
{
    MINDFUL_ASSERT(a != nullptr, "SlabCsrMatrix source must be non-null");
    MINDFUL_ASSERT(slab_width > 0, "slab width must be positive");

    SlabCsrMatrix out;
    out._rows = m;
    out._cols = k;
    const std::size_t slab_count =
        k == 0 ? 0 : (k + slab_width - 1) / slab_width;
    out._slabs.resize(slab_count);
    for (std::size_t s = 0; s < slab_count; ++s) {
        out._slabs[s].k_begin = s * slab_width;
        out._slabs[s].k_end = std::min(k, (s + 1) * slab_width);
        out._slabs[s].row_ptr.assign(m + 1, 0);
    }

    // Rows ascend and kk ascends within a row, so each slab's col/val
    // arrays come out row-major with ascending k per row — the order
    // multiply() relies on for the single-chain accumulation.
    for (std::size_t row = 0; row < m; ++row) {
        const float *arow = a + row * k;
        for (std::size_t kk = 0; kk < k; ++kk) {
            if (active_cols != nullptr && active_cols[kk] == 0)
                continue;
            const float v = arow[kk];
            if (v == 0.0f)
                continue;
            Slab &slab = out._slabs[kk / slab_width];
            slab.col.push_back(static_cast<std::uint32_t>(kk));
            slab.val.push_back(v);
        }
        for (Slab &slab : out._slabs)
            slab.row_ptr[row + 1] =
                static_cast<std::uint32_t>(slab.col.size());
    }
    for (const Slab &slab : out._slabs)
        out._nnz += slab.col.size();
    return out;
}

void
SlabCsrMatrix::multiplyRows(std::size_t n, const float *b,
                            const float *bias, float *c, bool relu,
                            std::size_t row_begin,
                            std::size_t row_end) const
{
    if (n == 1) {
        // Row-outer, slab-inner: one scalar chain per output element,
        // nonzeros visited in ascending k across the slab sequence.
        for (std::size_t row = row_begin; row < row_end; ++row) {
            float acc = bias != nullptr ? bias[row] : 0.0f;
            for (const Slab &slab : _slabs) {
                const std::uint32_t lo = slab.row_ptr[row];
                const std::uint32_t hi = slab.row_ptr[row + 1];
                for (std::uint32_t idx = lo; idx < hi; ++idx)
                    acc += slab.val[idx] * b[slab.col[idx]];
            }
            c[row] = relu ? std::max(acc, 0.0f) : acc;
        }
        return;
    }

    // n > 1: seed C with the bias, then stream slab by slab so the
    // touched band of B rows stays cache-resident; each C element
    // still receives its nonzero terms in ascending k order because
    // slabs are visited in k order and are ascending internally.
    for (std::size_t row = row_begin; row < row_end; ++row) {
        float *crow = c + row * n;
        const float bias_v = bias != nullptr ? bias[row] : 0.0f;
        std::fill(crow, crow + n, bias_v);
    }
    for (const Slab &slab : _slabs) {
        for (std::size_t row = row_begin; row < row_end; ++row) {
            float *crow = c + row * n;
            const std::uint32_t lo = slab.row_ptr[row];
            const std::uint32_t hi = slab.row_ptr[row + 1];
            for (std::uint32_t idx = lo; idx < hi; ++idx) {
                const float av = slab.val[idx];
                const float *brow =
                    b + static_cast<std::size_t>(slab.col[idx]) * n;
                for (std::size_t j = 0; j < n; ++j)
                    crow[j] += av * brow[j];
            }
        }
    }
    if (relu)
        for (std::size_t row = row_begin; row < row_end; ++row) {
            float *crow = c + row * n;
            for (std::size_t j = 0; j < n; ++j)
                crow[j] = std::max(crow[j], 0.0f);
        }
}

void
SlabCsrMatrix::multiply(std::size_t n, const float *b, const float *bias,
                        float *c, gemm::Epilogue epilogue) const
{
    MINDFUL_ASSERT(n > 0, "spmm n must be positive");
    MINDFUL_ASSERT(b != nullptr && c != nullptr,
                   "spmm buffers must be non-null");

    const std::uint64_t macs = static_cast<std::uint64_t>(_nnz) * n;
    MINDFUL_TRACE_SPAN(span, "dnn", "spmm");
    span.arg("m", static_cast<std::uint64_t>(_rows))
        .arg("n", static_cast<std::uint64_t>(n))
        .arg("nnz", static_cast<std::uint64_t>(_nnz));

    const bool relu = epilogue == gemm::Epilogue::Relu;

    // Same row-only sharding rule as biasGemm: shards own disjoint C
    // rows, so the decomposition cannot affect the result.
    std::size_t shards = 1;
    if (macs >= gemm::kParallelMacThreshold)
        shards = std::min<std::size_t>(exec::kDefaultShards, _rows);
    if (shards <= 1) {
        multiplyRows(n, b, bias, c, relu, 0, _rows);
    } else {
        static const obs::TraceSite shard_site =
            obs::TraceCollector::global().site("dnn", "spmm.shard");
        static const obs::CounterHandle shard_rows =
            obs::MetricRegistry::global().counter("dnn.spmm.shard_rows");
        exec::parallelFor(
            shards,
            [&](std::size_t shard) {
                obs::HotSpan shard_span(shard_site);
                auto range = exec::shardRange(_rows, shards, shard);
                shard_span.setArg(range.end - range.begin);
                multiplyRows(n, b, bias, c, relu, range.begin,
                             range.end);
                shard_rows.bump(range.end - range.begin);
            },
            "dnn.spmm.shard");
    }

    MINDFUL_METRIC_COUNT("dnn.spmm.calls", 1);
    MINDFUL_METRIC_COUNT("dnn.spmm.macs", macs);
}

double
maskedDensity(const float *a, std::size_t m, std::size_t k,
              const std::uint8_t *active_cols)
{
    if (m == 0 || k == 0)
        return 0.0;
    std::size_t nnz = 0;
    for (std::size_t row = 0; row < m; ++row) {
        const float *arow = a + row * k;
        for (std::size_t kk = 0; kk < k; ++kk) {
            if (active_cols != nullptr && active_cols[kk] == 0)
                continue;
            if (arow[kk] != 0.0f)
                ++nnz;
        }
    }
    return static_cast<double>(nnz) /
           (static_cast<double>(m) * static_cast<double>(k));
}

} // namespace mindful::dnn::sparse
