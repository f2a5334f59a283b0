/**
 * @file
 * Feed-forward network container.
 *
 * A Network is an ordered list of layers with a fixed input shape.
 * Besides forward execution it exposes the quantities the framework
 * analyses: the per-layer MAC census (Eq. 10), per-layer output
 * element counts (partition points, Sec. 6.1), and total weight
 * count (model size, Sec. 6.2).
 */

#ifndef MINDFUL_DNN_NETWORK_HH
#define MINDFUL_DNN_NETWORK_HH

#include <string>
#include <vector>

#include "dnn/layer.hh"

namespace mindful::dnn {

/** An ordered, shape-checked stack of layers. */
class Network
{
  public:
    Network(std::string name, Shape input_shape);

    Network(Network &&) = default;
    Network &operator=(Network &&) = default;

    const std::string &name() const { return _name; }
    const Shape &inputShape() const { return _shapes.front(); }
    const Shape &outputShape() const { return _shapes.back(); }

    /** Append a layer; its input shape is validated immediately. */
    void add(LayerPtr layer);

    /** Construct and append a layer in place; returns a reference. */
    template <typename L, typename... Args>
    L &
    emplace(Args &&...args)
    {
        auto layer = std::make_unique<L>(std::forward<Args>(args)...);
        L &ref = *layer;
        add(std::move(layer));
        return ref;
    }

    std::size_t layerCount() const { return _layers.size(); }
    const Layer &layer(std::size_t i) const;

    /** Input shape of layer @p i (output shape of layer i-1). */
    const Shape &shapeBefore(std::size_t i) const;

    /** Output shape of layer @p i. */
    const Shape &shapeAfter(std::size_t i) const;

    /** Output element count of layer @p i (partition-cut volume). */
    std::size_t outputElements(std::size_t i) const;

    /** Full forward pass. */
    Tensor forward(const Tensor &input) const;

    /** Forward through the first @p layers layers only. */
    Tensor forwardPrefix(const Tensor &input, std::size_t layers) const;

    /** Per-layer MAC census. */
    std::vector<MacCensus> census() const;

    /** Census of the first @p layers layers only. */
    std::vector<MacCensus> censusPrefix(std::size_t layers) const;

    /** Total MACs over all layers. */
    std::uint64_t totalMacs() const;

    /** Total trainable parameters. */
    std::uint64_t totalWeights() const;

    /** Randomize every layer's weights. */
    void initializeWeights(Rng &rng);

    /** Multi-line human-readable structure dump. */
    std::string summary() const;

  private:
    std::string _name;
    std::vector<LayerPtr> _layers;
    std::vector<Shape> _shapes; //!< _shapes[i] = input shape of layer i
};

} // namespace mindful::dnn

#endif // MINDFUL_DNN_NETWORK_HH
