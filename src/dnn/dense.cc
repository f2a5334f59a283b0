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
        _weights.assign(_in * _out, 0.0f);
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
    // y = W x + b is the n = 1 case of the shared GEMM kernel: the
    // weight matrix is A [out x in], the input is B [in x 1]. Each
    // row accumulates in ascending k order, so the result is
    // bit-identical to forwardNaive().
    Tensor out(Shape{_out});
    gemm::biasGemm(_out, 1, _in, _weights.data(), input.data(),
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
        const float *row = _weights.data() + r * _in;
        float acc = _biases[r];
        for (std::size_t c = 0; c < _in; ++c)
            acc += row[c] * x[c];
        out[r] = acc;
    }
    return out;
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
    double limit = std::sqrt(6.0 / static_cast<double>(_in + _out));
    for (auto &w : _weights)
        w = static_cast<float>(rng.uniform(-limit, limit));
    for (auto &b : _biases)
        b = 0.0f;
}

} // namespace mindful::dnn
