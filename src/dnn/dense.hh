/**
 * @file
 * Fully-connected (dense) layer.
 */

#ifndef MINDFUL_DNN_DENSE_HH
#define MINDFUL_DNN_DENSE_HH

#include <vector>

#include "dnn/layer.hh"
#include "dnn/sparse.hh"

namespace mindful::dnn {

/**
 * y = W x + b with W [out x in].
 *
 * Accepts any input tensor whose element count equals the configured
 * input width (implicit flatten), producing a rank-1 output.
 *
 * MAC census (Fig. 8, top): #MAC_op = out rows, MAC_seq = in
 * accumulations per row.
 *
 * Weights are allocated lazily: the analytical studies build networks
 * with billions of parameters purely to take their census, which must
 * not allocate. Call initializeWeights() (or materialize()) before
 * forward().
 */
class DenseLayer : public Layer
{
  public:
    DenseLayer(std::size_t in_features, std::size_t out_features);

    std::size_t inFeatures() const { return _in; }
    std::size_t outFeatures() const { return _out; }

    /** True once weight storage exists. */
    bool materialized() const { return !_weights.empty(); }

    /** Allocate zero-valued weight storage if not already present. */
    void materialize();

    std::string name() const override;
    Shape outputShape(const Shape &input) const override;

    /**
     * Execute via the shared GEMM kernel (src/dnn/gemm.hh), sharding
     * output rows over the pool under its shard floor. Bit-identical
     * to forwardNaive() and across thread counts.
     */
    Tensor forward(const Tensor &input) const override;

    /**
     * Retained golden reference: the original scalar row loop, for
     * the equivalence tests and the kernel_regression GEMV and
     * dropout ratios.
     */
    Tensor forwardNaive(const Tensor &input) const;

    MacCensus census(const Shape &input) const override;
    std::uint64_t weightCount() const override;
    void initializeWeights(Rng &rng) override;

    /**
     * Feature-level input dropout: @p mask has inFeatures() entries.
     * Picks Pruned or Csr from the post-dropout weight density
     * (sparse::kCsrDensityThreshold) and rebuilds the compacted view;
     * initializeWeights() rebuilds it again for the new weights.
     */
    bool setInputDropout(const std::vector<std::uint8_t> &mask) override;

    /** Kernel the next forward() will take. */
    DropoutPath dropoutPath() const { return _dropPath; }

    /** Row-major weights [out x in] (mutable for tests / loading). */
    std::vector<float> &weights() { return _weights; }
    const std::vector<float> &weights() const { return _weights; }
    std::vector<float> &biases() { return _biases; }
    const std::vector<float> &biases() const { return _biases; }

  private:
    /** Recompute the Pruned/Csr plan from _dropoutMask + _weights. */
    void rebuildDropoutPlan();

    std::size_t _in;
    std::size_t _out;
    std::vector<float> _weights;
    std::vector<float> _biases;

    std::vector<std::uint8_t> _dropoutMask; //!< empty = no dropout
    DropoutPath _dropPath = DropoutPath::None;
    sparse::PrunedColumns _pruned;
    sparse::SlabCsrMatrix _csr;
};

} // namespace mindful::dnn

#endif // MINDFUL_DNN_DENSE_HH
