/**
 * @file
 * 2-D convolution and DenseNet-style stage layers.
 *
 * ECoG decoding networks treat a window of neural data as a
 * (channels x time) image; the DN-CNN speech model (Berezutskaya et
 * al. 2023) is a densely-connected CNN over such windows. Conv2dLayer
 * implements plain convolution; DenseStage2dLayer implements one
 * DenseNet stage: out = concat(input, relu(conv(input))).
 */

#ifndef MINDFUL_DNN_CONV_HH
#define MINDFUL_DNN_CONV_HH

#include <cstdint>
#include <vector>

#include "dnn/layer.hh"

namespace mindful::dnn {

/** Padding policy for convolutions. */
enum class Padding : std::uint8_t {
    Valid, //!< no padding; output shrinks by kernel - 1
    Same   //!< zero padding; output spatial size = ceil(in / stride)
};

/**
 * 2-D convolution over (channels, height, width) tensors.
 *
 * MAC census (Fig. 8, bottom): each output element (position x
 * output channel) is one independent MAC_op whose sequence length is
 * kernel_area * in_channels, matching the paper's worked example
 * (#MAC_op = 4, MAC_seq = 8 for a 2-in/1-out kernel-4 layer with
 * output size 4).
 */
class Conv2dLayer : public Layer
{
  public:
    Conv2dLayer(std::size_t in_channels, std::size_t out_channels,
                std::size_t kernel_h, std::size_t kernel_w,
                std::size_t stride = 1, Padding padding = Padding::Valid);

    std::size_t inChannels() const { return _inChannels; }
    std::size_t outChannels() const { return _outChannels; }

    /** True once weight storage exists (see DenseLayer note). */
    bool materialized() const { return !_weights.empty(); }

    /** Allocate zero-valued weight storage if not already present. */
    void materialize();

    std::string name() const override;
    Shape outputShape(const Shape &input) const override;

    /**
     * Execute as one gemm::convGemm product (src/dnn/gemm.hh): im2col
     * + blocked GEMM, or implicit shifted taps on the avx512 tier.
     * Bit-identical to forwardNaive() and across thread counts (the
     * GEMM determinism contract, docs/performance.md).
     */
    Tensor forward(const Tensor &input) const override;

    /**
     * Retained golden reference: the original branchy scalar loop.
     * Exists for the equivalence tests; never use it on a hot path.
     */
    Tensor forwardNaive(const Tensor &input) const;

    /**
     * GEMM forward into a caller-provided output view of
     * elementCount(outputShape(...)) floats, laid out [oc][oy][ox].
     * With @p fuse_relu the ReLU epilogue is applied in the GEMM
     * store, so composite layers (DenseStage2dLayer) need no second
     * pass and no intermediate tensor.
     */
    void forwardInto(const Tensor &input, float *out,
                     bool fuse_relu = false) const;

    /** Reference-path variant of forwardInto (no ReLU fusion). */
    void forwardNaiveInto(const Tensor &input, float *out) const;

    MacCensus census(const Shape &input) const override;
    std::uint64_t weightCount() const override;
    void initializeWeights(Rng &rng) override;

    /** Weights laid out [out_ch][in_ch][kh][kw]. */
    std::vector<float> &weights() { return _weights; }
    const std::vector<float> &weights() const { return _weights; }
    std::vector<float> &biases() { return _biases; }

  private:
    /** Output spatial extent along one axis. */
    std::size_t outExtent(std::size_t in, std::size_t kernel) const;

    /** Top/left zero-padding offset for the current padding mode. */
    std::ptrdiff_t padBefore(std::size_t kernel) const;

    std::size_t _inChannels;
    std::size_t _outChannels;
    std::size_t _kernelH;
    std::size_t _kernelW;
    std::size_t _stride;
    Padding _padding;
    std::vector<float> _weights;
    std::vector<float> _biases;
};

/**
 * One DenseNet stage: y = concat(x, relu(conv_same(x, growth))).
 *
 * Output channel count is in_channels + growth; spatial dimensions
 * are preserved ("same" padding, stride 1).
 */
class DenseStage2dLayer : public Layer
{
  public:
    DenseStage2dLayer(std::size_t in_channels, std::size_t growth,
                      std::size_t kernel_h, std::size_t kernel_w);

    std::size_t growth() const { return _growth; }
    const Conv2dLayer &conv() const { return _conv; }

    std::string name() const override;
    Shape outputShape(const Shape &input) const override;

    /**
     * Fast path: passthrough copy of the input channels plus the
     * inner convolution written *directly* into the concatenated
     * output (ReLU fused into the GEMM epilogue) — no intermediate
     * conv tensor and no second copy.
     */
    Tensor forward(const Tensor &input) const override;

    /**
     * Retained golden reference built on Conv2dLayer::forwardNaive
     * through the same output view (so even the reference pays no
     * double copy).
     */
    Tensor forwardReference(const Tensor &input) const;

    MacCensus census(const Shape &input) const override;
    std::uint64_t weightCount() const override;
    void initializeWeights(Rng &rng) override;

  private:
    std::size_t _inChannels;
    std::size_t _growth;
    Conv2dLayer _conv;
};

} // namespace mindful::dnn

#endif // MINDFUL_DNN_CONV_HH
