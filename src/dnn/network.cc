#include "dnn/network.hh"

#include <sstream>

#include "base/logging.hh"
#include "obs/collector.hh"
#include "obs/metrics.hh"

namespace mindful::dnn {

Network::Network(std::string name, Shape input_shape)
    : _name(std::move(name))
{
    MINDFUL_ASSERT(!input_shape.empty() && elementCount(input_shape) > 0,
                   "network input shape must be non-empty");
    _shapes.push_back(std::move(input_shape));
}

void
Network::add(LayerPtr layer)
{
    MINDFUL_ASSERT(layer != nullptr, "cannot add a null layer");
    Shape out = layer->outputShape(_shapes.back());
    _shapes.push_back(std::move(out));
    _layers.push_back(std::move(layer));
}

const Layer &
Network::layer(std::size_t i) const
{
    MINDFUL_ASSERT(i < _layers.size(), "layer index out of range");
    return *_layers[i];
}

const Shape &
Network::shapeBefore(std::size_t i) const
{
    MINDFUL_ASSERT(i < _layers.size(), "layer index out of range");
    return _shapes[i];
}

const Shape &
Network::shapeAfter(std::size_t i) const
{
    MINDFUL_ASSERT(i < _layers.size(), "layer index out of range");
    return _shapes[i + 1];
}

std::size_t
Network::outputElements(std::size_t i) const
{
    return elementCount(shapeAfter(i));
}

Tensor
Network::forward(const Tensor &input) const
{
    return forwardPrefix(input, _layers.size());
}

Tensor
Network::forwardPrefix(const Tensor &input, std::size_t layers) const
{
    MINDFUL_ASSERT(layers <= _layers.size(),
                   "prefix length exceeds layer count");
    MINDFUL_ASSERT(input.shape() == _shapes.front(),
                   "input shape ", toString(input.shape()),
                   " != expected ", toString(_shapes.front()));

    MINDFUL_TRACE_SPAN(span, "dnn", "network.forward");
    span.arg("layers", layers);
    MINDFUL_METRIC_COUNT("dnn.forward.calls", 1);
    MINDFUL_METRIC_COUNT("dnn.forward.layers", layers);

    Tensor activation = input;
    for (std::size_t i = 0; i < layers; ++i)
        activation = _layers[i]->forward(activation);
    return activation;
}

std::vector<MacCensus>
Network::census() const
{
    return censusPrefix(_layers.size());
}

std::vector<MacCensus>
Network::censusPrefix(std::size_t layers) const
{
    MINDFUL_ASSERT(layers <= _layers.size(),
                   "prefix length exceeds layer count");
    std::vector<MacCensus> out;
    out.reserve(layers);
    for (std::size_t i = 0; i < layers; ++i)
        out.push_back(_layers[i]->census(_shapes[i]));
    return out;
}

std::uint64_t
Network::totalMacs() const
{
    std::uint64_t total = 0;
    for (const auto &entry : census())
        total += entry.totalMacs();
    return total;
}

std::uint64_t
Network::totalWeights() const
{
    std::uint64_t total = 0;
    for (const auto &layer : _layers)
        total += layer->weightCount();
    return total;
}

void
Network::initializeWeights(Rng &rng)
{
    for (auto &layer : _layers)
        layer->initializeWeights(rng);
}

bool
Network::setInputDropout(const std::vector<std::uint8_t> &mask)
{
    MINDFUL_ASSERT(!_layers.empty(),
                   "setInputDropout on an empty network");
    return _layers.front()->setInputDropout(mask);
}

std::string
Network::summary() const
{
    std::ostringstream os;
    os << _name << " (input " << toString(_shapes.front()) << ")\n";
    auto counts = census();
    for (std::size_t i = 0; i < _layers.size(); ++i) {
        os << "  [" << i << "] " << _layers[i]->name() << " -> "
           << toString(_shapes[i + 1]);
        if (!counts[i].empty()) {
            os << "  (#MACop " << counts[i].macOp << ", MACseq "
               << counts[i].macSeq << ", MACs " << counts[i].totalMacs()
               << ")";
        }
        os << '\n';
    }
    os << "  total MACs " << totalMacs() << ", weights " << totalWeights();
    return os.str();
}

} // namespace mindful::dnn
