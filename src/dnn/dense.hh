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
 *
 * W is stored once, in the panel layout gemm::packedGemv streams
 * (gemm::packedIndex): rows in panels of gemm::kPanelRows, each panel
 * ordered by column, the last panel padded with zero rows. Read and
 * write it through weight() and setWeights().
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
     * Execute via the packed GEMV (gemm::packedGemv).
     * Bit-identical to forwardNaive() and across thread counts.
     */
    Tensor forward(const Tensor &input) const override;

    /**
     * Retained golden reference: the original scalar row loop (one
     * row's weights read at their packed slots), for the equivalence
     * tests.
     */
    Tensor forwardNaive(const Tensor &input) const;

    MacCensus census(const Shape &input) const override;
    std::uint64_t weightCount() const override;
    void initializeWeights(Rng &rng) override;

    /** W[row][col]; the layer must be materialized. */
    float weight(std::size_t row, std::size_t col) const;

    /**
     * Replace W with @p row_major ([out x in], row by row),
     * materializing the layer first if needed.
     */
    void setWeights(const std::vector<float> &row_major);

    std::vector<float> &biases() { return _biases; }
    const std::vector<float> &biases() const { return _biases; }

  private:
    std::size_t _in;
    std::size_t _out;
    std::vector<float> _weights; //!< packed panels (gemm::packedIndex)
    std::vector<float> _biases;
};

} // namespace mindful::dnn

#endif // MINDFUL_DNN_DENSE_HH
