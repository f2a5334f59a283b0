#include "dnn/dense.hh"

#include <cmath>
#include <sstream>

#include "base/logging.hh"
#include "dnn/gemm.hh"

namespace mindful::dnn {

DenseLayer::DenseLayer(std::size_t in_features, std::size_t out_features)
    : _in(in_features), _out(out_features)
{
    MINDFUL_ASSERT(in_features > 0 && out_features > 0,
                   "dense layer dimensions must be positive");
}

void
DenseLayer::materialize()
{
    if (!materialized()) {
        _weights.assign(gemm::packedSize(_out, _in), 0.0f);
        _biases.assign(_out, 0.0f);
    }
}

std::string
DenseLayer::name() const
{
    std::ostringstream os;
    os << "dense " << _in << "->" << _out;
    return os.str();
}

Shape
DenseLayer::outputShape(const Shape &input) const
{
    MINDFUL_ASSERT(elementCount(input) == _in,
                   "dense layer expects ", _in, " inputs, got shape ",
                   toString(input));
    return {_out};
}

Tensor
DenseLayer::forward(const Tensor &input) const
{
    MINDFUL_ASSERT(input.size() == _in,
                   "dense layer expects ", _in, " inputs, got ",
                   input.size());
    MINDFUL_ASSERT(materialized(), "dense layer weights not materialized; "
                   "call initializeWeights() before forward()");
    // Each row accumulates in ascending k order, so the packed GEMV
    // is bit-identical to forwardNaive().
    Tensor out(Shape{_out});
    gemm::packedGemv(_out, _in, _weights.data(), input.data(),
                     _biases.data(), out.data());
    return out;
}

Tensor
DenseLayer::forwardNaive(const Tensor &input) const
{
    MINDFUL_ASSERT(input.size() == _in,
                   "dense layer expects ", _in, " inputs, got ",
                   input.size());
    MINDFUL_ASSERT(materialized(), "dense layer weights not materialized; "
                   "call initializeWeights() before forward()");
    Tensor out(Shape{_out});
    const float *x = input.data();
    for (std::size_t r = 0; r < _out; ++r) {
        float acc = _biases[r];
        for (std::size_t c = 0; c < _in; ++c)
            acc += _weights[gemm::packedIndex(r, c, _in)] * x[c];
        out[r] = acc;
    }
    return out;
}

float
DenseLayer::weight(std::size_t row, std::size_t col) const
{
    MINDFUL_ASSERT(materialized() && row < _out && col < _in,
                   "dense weight (", row, ", ", col, ") out of range or "
                   "not materialized");
    return _weights[gemm::packedIndex(row, col, _in)];
}

void
DenseLayer::setWeights(const std::vector<float> &row_major)
{
    MINDFUL_ASSERT(row_major.size() == _in * _out, "dense layer expects ",
                   _in * _out, " weights, got ", row_major.size());
    materialize();
    for (std::size_t r = 0; r < _out; ++r)
        for (std::size_t c = 0; c < _in; ++c)
            _weights[gemm::packedIndex(r, c, _in)] = row_major[r * _in + c];
}

MacCensus
DenseLayer::census(const Shape &input) const
{
    MINDFUL_ASSERT(elementCount(input) == _in,
                   "census input shape mismatch for ", name());
    return {static_cast<std::uint64_t>(_out),
            static_cast<std::uint64_t>(_in)};
}

std::uint64_t
DenseLayer::weightCount() const
{
    // Computed from dimensions so unmaterialized layers report their
    // true model size.
    return static_cast<std::uint64_t>(_in) * _out + _out;
}

void
DenseLayer::initializeWeights(Rng &rng)
{
    materialize();
    // Xavier-uniform: keeps activations in range through deep stacks.
    // Drawn in row-major order, each straight into its packed slot.
    double limit = std::sqrt(6.0 / static_cast<double>(_in + _out));
    for (std::size_t r = 0; r < _out; ++r)
        for (std::size_t c = 0; c < _in; ++c)
            _weights[gemm::packedIndex(r, c, _in)] =
                static_cast<float>(rng.uniform(-limit, limit));
    for (auto &b : _biases)
        b = 0.0f;
}

} // namespace mindful::dnn
