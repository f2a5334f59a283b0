#include "dnn/pooling.hh"

#include <algorithm>
#include <limits>
#include <sstream>

#include "base/logging.hh"

namespace mindful::dnn {

Pool2dLayer::Pool2dLayer(PoolKind kind, std::size_t kernel_h,
                         std::size_t kernel_w)
    : _kind(kind), _kernelH(kernel_h), _kernelW(kernel_w)
{
    MINDFUL_ASSERT(kernel_h > 0 && kernel_w > 0,
                   "pool kernel dimensions must be positive");
}

std::string
Pool2dLayer::name() const
{
    std::ostringstream os;
    os << (_kind == PoolKind::Max ? "max-pool " : "avg-pool ") << _kernelH
       << "x" << _kernelW;
    return os.str();
}

Shape
Pool2dLayer::outputShape(const Shape &input) const
{
    MINDFUL_ASSERT(input.size() == 3, "pool2d expects a rank-3 input");
    MINDFUL_ASSERT(input[1] >= _kernelH && input[2] >= _kernelW,
                   "pool kernel larger than input");
    return {input[0], input[1] / _kernelH, input[2] / _kernelW};
}

namespace {

/** Geometry of one non-overlapping pool over (channels, h, w). */
struct PoolGeometry
{
    std::size_t channels;
    std::size_t inH, inW;
    std::size_t kernelH, kernelW;
    std::size_t outH, outW;
};

/**
 * Max-pool, a whole output row at a time: the row starts at -inf and
 * takes std::max with each window element, visiting the window
 * row-major as the innermost loop runs across ox. Every output sees
 * exactly the element-wise loop's max sequence — a NaN element never
 * replaces the running max, and of equal elements (+0 vs -0) the first
 * is kept — while the ox loop vectorises.
 */
void
maxPool(const float *input, const PoolGeometry &g, float *out)
{
    const std::size_t kw = g.kernelW;
    for (std::size_t c = 0; c < g.channels; ++c) {
        const float *plane = input + c * g.inH * g.inW;
        for (std::size_t oy = 0; oy < g.outH; ++oy, out += g.outW) {
            std::fill(out, out + g.outW,
                      -std::numeric_limits<float>::infinity());
            for (std::size_t ky = 0; ky < g.kernelH; ++ky) {
                const float *row = plane + (oy * g.kernelH + ky) * g.inW;
                for (std::size_t kx = 0; kx < kw; ++kx)
                    for (std::size_t ox = 0; ox < g.outW; ++ox)
                        out[ox] = std::max(out[ox], row[ox * kw + kx]);
            }
        }
    }
}

/**
 * Average-pool: each output sums its window in double precision,
 * row-major, then divides once — the element-wise loop's sequence.
 */
void
averagePool(const float *input, const PoolGeometry &g, float *out)
{
    const double window =
        static_cast<double>(g.kernelH) * static_cast<double>(g.kernelW);
    for (std::size_t c = 0; c < g.channels; ++c) {
        const float *plane = input + c * g.inH * g.inW;
        for (std::size_t oy = 0; oy < g.outH; ++oy) {
            for (std::size_t ox = 0; ox < g.outW; ++ox, ++out) {
                double sum = 0.0;
                for (std::size_t ky = 0; ky < g.kernelH; ++ky) {
                    const float *row = plane +
                                       (oy * g.kernelH + ky) * g.inW +
                                       ox * g.kernelW;
                    for (std::size_t kx = 0; kx < g.kernelW; ++kx)
                        sum += row[kx];
                }
                *out = static_cast<float>(sum / window);
            }
        }
    }
}

} // namespace

Tensor
Pool2dLayer::forward(const Tensor &input) const
{
    const Shape out_shape = outputShape(input.shape());
    Tensor out(out_shape);
    // outputShape validated the shape, so rows are read through raw
    // plane pointers.
    const PoolGeometry geometry{out_shape[0], input.dim(1), input.dim(2),
                                _kernelH,     _kernelW,     out_shape[1],
                                out_shape[2]};
    if (_kind == PoolKind::Max)
        maxPool(input.data(), geometry, out.data());
    else
        averagePool(input.data(), geometry, out.data());
    return out;
}

Shape
GlobalAvgPoolLayer::outputShape(const Shape &input) const
{
    MINDFUL_ASSERT(input.size() == 3,
                   "global-avg-pool expects a rank-3 input");
    return {input[0]};
}

Tensor
GlobalAvgPoolLayer::forward(const Tensor &input) const
{
    Shape out_shape = outputShape(input.shape());
    Tensor out(out_shape);
    const double window =
        static_cast<double>(input.dim(1)) * static_cast<double>(input.dim(2));
    // A channel plane is contiguous: sum it in row-major order, the
    // same double-precision sequence as the element-wise loop.
    const std::size_t plane = input.dim(1) * input.dim(2);
    for (std::size_t c = 0; c < out_shape[0]; ++c) {
        const float *src = input.data() + c * plane;
        double sum = 0.0;
        for (std::size_t i = 0; i < plane; ++i)
            sum += src[i];
        out[c] = static_cast<float>(sum / window);
    }
    return out;
}

Shape
FlattenLayer::outputShape(const Shape &input) const
{
    MINDFUL_ASSERT(!input.empty(), "flatten of an empty shape");
    return {elementCount(input)};
}

Tensor
FlattenLayer::forward(const Tensor &input) const
{
    Tensor out = input;
    out.reshape({input.size()});
    return out;
}

} // namespace mindful::dnn
