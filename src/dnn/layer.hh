/**
 * @file
 * Abstract DNN layer interface.
 *
 * A layer knows how to (a) execute forward on a tensor, (b) report
 * its output shape, (c) report its MAC census for the accelerator
 * lower-bound model (Eq. 10), and (d) report its weight count for
 * the model-size analyses of Sec. 6.
 */

#ifndef MINDFUL_DNN_LAYER_HH
#define MINDFUL_DNN_LAYER_HH

#include <cstdint>
#include <memory>
#include <string>

#include "base/random.hh"
#include "dnn/mac_census.hh"
#include "dnn/tensor.hh"

namespace mindful::dnn {

/** Base class of all network layers. */
class Layer
{
  public:
    virtual ~Layer() = default;

    /** Short human-readable description, e.g. "dense 512->128". */
    virtual std::string name() const = 0;

    /** Output shape for a given input shape (panics on mismatch). */
    virtual Shape outputShape(const Shape &input) const = 0;

    /** Execute the layer. */
    virtual Tensor forward(const Tensor &input) const = 0;

    /** MAC decomposition for an input of the given shape. */
    virtual MacCensus census(const Shape &input) const = 0;

    /** Number of trainable parameters (weights + biases). */
    virtual std::uint64_t weightCount() const = 0;

    /** Randomize weights (no-op for parameterless layers). */
    virtual void initializeWeights(Rng &rng) { (void)rng; }
};

using LayerPtr = std::unique_ptr<Layer>;

} // namespace mindful::dnn

#endif // MINDFUL_DNN_LAYER_HH
