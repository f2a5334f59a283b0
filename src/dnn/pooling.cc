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

Tensor
Pool2dLayer::forward(const Tensor &input) const
{
    Shape out_shape = outputShape(input.shape());
    Tensor out(out_shape);
    const double window =
        static_cast<double>(_kernelH) * static_cast<double>(_kernelW);

    // Rows are read through unchecked row pointers (outputShape
    // validated the shape); the window is still visited row-major, so
    // the max order and the double-precision sum match the
    // element-wise loop.
    float *dst = out.data();
    for (std::size_t c = 0; c < out_shape[0]; ++c) {
        for (std::size_t oy = 0; oy < out_shape[1]; ++oy) {
            for (std::size_t ox = 0; ox < out_shape[2]; ++ox, ++dst) {
                float best = -std::numeric_limits<float>::infinity();
                double sum = 0.0;
                for (std::size_t ky = 0; ky < _kernelH; ++ky) {
                    const float *row =
                        input.rowData(c, oy * _kernelH + ky) +
                        ox * _kernelW;
                    for (std::size_t kx = 0; kx < _kernelW; ++kx) {
                        best = std::max(best, row[kx]);
                        sum += row[kx];
                    }
                }
                *dst = _kind == PoolKind::Max
                           ? best
                           : static_cast<float>(sum / window);
            }
        }
    }
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
