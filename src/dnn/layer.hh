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
#include <vector>

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

    /**
     * Install an input-dropout mask (Sec. 6.2 channel dropout as
     * *executed* sparsity instead of a rebuilt smaller model). One
     * entry per dropout unit of the layer's input — features for
     * DenseLayer, channels for Conv2dLayer; non-zero = active. An
     * all-active or empty mask clears dropout. Returns false (the
     * default) from layers that do not support input dropout; the
     * mask is then ignored.
     *
     * Contract: forward() over any input equals forward() without the
     * mask over the same input with the dropped units zeroed —
     * bit-identically for finite data (see DropoutPlan::pack in
     * src/dnn/dropout.hh on the ±0 caveat).
     */
    virtual bool setInputDropout(const std::vector<std::uint8_t> &mask)
    {
        (void)mask;
        return false;
    }
};

using LayerPtr = std::unique_ptr<Layer>;

} // namespace mindful::dnn

#endif // MINDFUL_DNN_LAYER_HH
