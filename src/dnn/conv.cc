#include "dnn/conv.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "base/logging.hh"
#include "base/special_math.hh"
#include "dnn/gemm.hh"

namespace mindful::dnn {

Conv2dLayer::Conv2dLayer(std::size_t in_channels, std::size_t out_channels,
                         std::size_t kernel_h, std::size_t kernel_w,
                         std::size_t stride, Padding padding)
    : _inChannels(in_channels), _outChannels(out_channels),
      _kernelH(kernel_h), _kernelW(kernel_w), _stride(stride),
      _padding(padding)
{
    MINDFUL_ASSERT(in_channels > 0 && out_channels > 0,
                   "conv channel counts must be positive");
    MINDFUL_ASSERT(kernel_h > 0 && kernel_w > 0,
                   "conv kernel dimensions must be positive");
    MINDFUL_ASSERT(stride > 0, "conv stride must be positive");
}

void
Conv2dLayer::materialize()
{
    if (!materialized()) {
        _weights.assign(_outChannels * _inChannels * _kernelH * _kernelW,
                        0.0f);
        _biases.assign(_outChannels, 0.0f);
    }
}

std::string
Conv2dLayer::name() const
{
    std::ostringstream os;
    os << "conv2d " << _inChannels << "->" << _outChannels << " k"
       << _kernelH << "x" << _kernelW << " s" << _stride
       << (_padding == Padding::Same ? " same" : " valid");
    return os.str();
}

std::size_t
Conv2dLayer::outExtent(std::size_t in, std::size_t kernel) const
{
    if (_padding == Padding::Same)
        return (in + _stride - 1) / _stride;
    MINDFUL_ASSERT(in >= kernel, "conv input smaller than kernel");
    return (in - kernel) / _stride + 1;
}

Shape
Conv2dLayer::outputShape(const Shape &input) const
{
    MINDFUL_ASSERT(input.size() == 3, "conv2d expects a rank-3 input, got ",
                   toString(input));
    MINDFUL_ASSERT(input[0] == _inChannels, "conv2d expects ", _inChannels,
                   " input channels, got ", input[0]);
    return {_outChannels, outExtent(input[1], _kernelH),
            outExtent(input[2], _kernelW)};
}

std::ptrdiff_t
Conv2dLayer::padBefore(std::size_t kernel) const
{
    return _padding == Padding::Same
               ? static_cast<std::ptrdiff_t>((kernel - 1) / 2)
               : 0;
}

Tensor
Conv2dLayer::forward(const Tensor &input) const
{
    Tensor out(outputShape(input.shape()));
    forwardInto(input, out.data());
    return out;
}

void
Conv2dLayer::forwardInto(const Tensor &input, float *out,
                         bool fuse_relu) const
{
    MINDFUL_ASSERT(materialized(), "conv weights not materialized; "
                   "call initializeWeights() before forward()");
    MINDFUL_ASSERT(out != nullptr, "conv output view is null");
    Shape out_shape = outputShape(input.shape());
    const gemm::ConvGeometry geometry{
        _inChannels,
        input.dim(1),
        input.dim(2),
        _kernelH,
        _kernelW,
        _stride,
        static_cast<std::size_t>(padBefore(_kernelH)),
        static_cast<std::size_t>(padBefore(_kernelW)),
        out_shape[1],
        out_shape[2]};
    gemm::convGemm(_outChannels, geometry, _weights.data(), input.data(),
                   _biases.data(), out,
                   fuse_relu ? gemm::Epilogue::Relu : gemm::Epilogue::None);
}

Tensor
Conv2dLayer::forwardNaive(const Tensor &input) const
{
    Tensor out(outputShape(input.shape()));
    forwardNaiveInto(input, out.data());
    return out;
}

void
Conv2dLayer::forwardNaiveInto(const Tensor &input, float *out) const
{
    MINDFUL_ASSERT(materialized(), "conv weights not materialized; "
                   "call initializeWeights() before forward()");
    MINDFUL_ASSERT(out != nullptr, "conv output view is null");
    Shape out_shape = outputShape(input.shape());

    const std::size_t in_h = input.dim(1);
    const std::size_t in_w = input.dim(2);
    const std::size_t out_h = out_shape[1];
    const std::size_t out_w = out_shape[2];

    // Top/left zero-padding offsets for "same" mode.
    const std::ptrdiff_t pad_h = padBefore(_kernelH);
    const std::ptrdiff_t pad_w = padBefore(_kernelW);

    for (std::size_t oc = 0; oc < _outChannels; ++oc) {
        for (std::size_t oy = 0; oy < out_h; ++oy) {
            for (std::size_t ox = 0; ox < out_w; ++ox) {
                // Padding is literal zeros: a padding tap adds
                // w * +0.0f like any other tap, which keeps a -0.0
                // running sum exactly where the GEMM routes keep it.
                float acc = _biases[oc];
                for (std::size_t ic = 0; ic < _inChannels; ++ic) {
                    for (std::size_t ky = 0; ky < _kernelH; ++ky) {
                        std::ptrdiff_t iy =
                            static_cast<std::ptrdiff_t>(oy * _stride + ky) -
                            pad_h;
                        const bool row_in =
                            iy >= 0 &&
                            iy < static_cast<std::ptrdiff_t>(in_h);
                        for (std::size_t kx = 0; kx < _kernelW; ++kx) {
                            std::ptrdiff_t ix =
                                static_cast<std::ptrdiff_t>(ox * _stride +
                                                            kx) -
                                pad_w;
                            const bool in = row_in && ix >= 0 &&
                                            ix < static_cast<std::ptrdiff_t>(
                                                     in_w);
                            float w = _weights[((oc * _inChannels + ic) *
                                                    _kernelH +
                                                ky) *
                                                   _kernelW +
                                               kx];
                            float v =
                                in ? input.at(ic,
                                              static_cast<std::size_t>(iy),
                                              static_cast<std::size_t>(ix))
                                   : 0.0f;
                            acc += w * v;
                        }
                    }
                }
                out[(oc * out_h + oy) * out_w + ox] = acc;
            }
        }
    }
}

MacCensus
Conv2dLayer::census(const Shape &input) const
{
    Shape out = outputShape(input);

    // Fig. 8 semantics: every output element (position x output
    // channel) is an independent dot product of length
    // kernel_area * in_channels. This reproduces the paper's example
    // (2 in-ch, 1 out-ch, kernel 4, output 4: #MAC_op = 4,
    // MAC_seq = 8) and keeps #MAC_op * MAC_seq exactly equal to the
    // layer's total MAC count.
    std::uint64_t mac_op = static_cast<std::uint64_t>(out[1]) * out[2] *
                           _outChannels;
    std::uint64_t mac_seq =
        static_cast<std::uint64_t>(_kernelH) * _kernelW * _inChannels;
    return {mac_op, mac_seq};
}

std::uint64_t
Conv2dLayer::weightCount() const
{
    // Computed from dimensions so unmaterialized layers report their
    // true model size.
    return static_cast<std::uint64_t>(_outChannels) * _inChannels *
               _kernelH * _kernelW +
           _outChannels;
}

void
Conv2dLayer::initializeWeights(Rng &rng)
{
    materialize();
    double fan_in =
        static_cast<double>(_inChannels * _kernelH * _kernelW);
    double limit = std::sqrt(3.0 / fan_in);
    for (auto &w : _weights)
        w = static_cast<float>(rng.uniform(-limit, limit));
    for (auto &b : _biases)
        b = 0.0f;
}

DenseStage2dLayer::DenseStage2dLayer(std::size_t in_channels,
                                     std::size_t growth,
                                     std::size_t kernel_h,
                                     std::size_t kernel_w)
    : _inChannels(in_channels), _growth(growth),
      _conv(in_channels, growth, kernel_h, kernel_w, 1, Padding::Same)
{
    MINDFUL_ASSERT(growth > 0, "dense stage growth must be positive");
}

std::string
DenseStage2dLayer::name() const
{
    std::ostringstream os;
    os << "dense-stage " << _inChannels << "+" << _growth;
    return os.str();
}

Shape
DenseStage2dLayer::outputShape(const Shape &input) const
{
    Shape conv_out = _conv.outputShape(input);
    return {_inChannels + _growth, conv_out[1], conv_out[2]};
}

Tensor
DenseStage2dLayer::forward(const Tensor &input) const
{
    Tensor out(outputShape(input.shape()));
    // Concatenate along the channel axis: passthrough channels first,
    // then the conv writes its ReLU-ed features (DenseNet composite
    // function, fused into the GEMM epilogue) directly behind them.
    std::copy(input.storage().begin(), input.storage().end(),
              out.storage().begin());
    _conv.forwardInto(input, out.data() + input.size(),
                      /*fuse_relu=*/true);
    return out;
}

Tensor
DenseStage2dLayer::forwardReference(const Tensor &input) const
{
    Tensor out(outputShape(input.shape()));
    std::copy(input.storage().begin(), input.storage().end(),
              out.storage().begin());
    // The reference conv also renders into the concatenated tensor
    // through an output view — no intermediate tensor, no second copy.
    float *growth_out = out.data() + input.size();
    _conv.forwardNaiveInto(input, growth_out);
    const std::size_t count = out.size() - input.size();
    for (std::size_t i = 0; i < count; ++i)
        growth_out[i] = std::max(growth_out[i], 0.0f);
    return out;
}

MacCensus
DenseStage2dLayer::census(const Shape &input) const
{
    return _conv.census(input);
}

std::uint64_t
DenseStage2dLayer::weightCount() const
{
    return _conv.weightCount();
}

void
DenseStage2dLayer::initializeWeights(Rng &rng)
{
    _conv.initializeWeights(rng);
}

} // namespace mindful::dnn
