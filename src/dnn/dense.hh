/**
 * @file
 * Fully-connected (dense) layer.
 */

#ifndef MINDFUL_DNN_DENSE_HH
#define MINDFUL_DNN_DENSE_HH

#include <vector>

#include "dnn/layer.hh"

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
     * Execute via the shared GEMM kernel (src/dnn/gemm.hh).
     * Bit-identical to forwardNaive() and across thread counts.
     */
    Tensor forward(const Tensor &input) const override;

    /**
     * Retained golden reference: the original scalar row loop, for
     * the equivalence tests and the kernel_regression GEMV ratio.
     */
    Tensor forwardNaive(const Tensor &input) const;

    MacCensus census(const Shape &input) const override;
    std::uint64_t weightCount() const override;
    void initializeWeights(Rng &rng) override;

    /** Row-major weights [out x in] (mutable for tests / loading). */
    std::vector<float> &weights() { return _weights; }
    const std::vector<float> &weights() const { return _weights; }
    std::vector<float> &biases() { return _biases; }
    const std::vector<float> &biases() const { return _biases; }

  private:
    std::size_t _in;
    std::size_t _out;
    std::vector<float> _weights;
    std::vector<float> _biases;
};

} // namespace mindful::dnn

#endif // MINDFUL_DNN_DENSE_HH
