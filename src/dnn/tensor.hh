/**
 * @file
 * Minimal dense tensor for DNN inference.
 *
 * The framework needs real forward execution (to cross-check the
 * accelerator simulator and to run the end-to-end examples), but only
 * for small models — so this is a simple row-major float tensor with
 * explicit shapes, not a full autograd framework.
 */

#ifndef MINDFUL_DNN_TENSOR_HH
#define MINDFUL_DNN_TENSOR_HH

#include <cstddef>
#include <numeric>
#include <string>
#include <vector>

#include "base/logging.hh"

namespace mindful::dnn {

/** Tensor shape: a list of dimension extents. */
using Shape = std::vector<std::size_t>;

/** Total element count of a shape. */
std::size_t elementCount(const Shape &shape);

/** Human-readable "AxBxC" rendering of a shape. */
std::string toString(const Shape &shape);

/** Row-major dense float tensor. */
class Tensor
{
  public:
    Tensor() = default;

    /** Zero-filled tensor of the given shape. */
    explicit Tensor(Shape shape);

    /** Tensor with explicit contents (size must match the shape). */
    Tensor(Shape shape, std::vector<float> data);

    const Shape &shape() const { return _shape; }
    std::size_t rank() const { return _shape.size(); }
    std::size_t size() const { return _data.size(); }
    std::size_t dim(std::size_t i) const;

    float *data() { return _data.data(); }
    const float *data() const { return _data.data(); }
    std::vector<float> &storage() { return _data; }
    const std::vector<float> &storage() const { return _data; }

    float &operator[](std::size_t i) { return _data[i]; }
    float operator[](std::size_t i) const { return _data[i]; }

    /** 2-D accessors (rank must be 2). */
    float &at(std::size_t i, std::size_t j);
    float at(std::size_t i, std::size_t j) const;

    /** 3-D accessors (rank must be 3). */
    float &at(std::size_t c, std::size_t h, std::size_t w);
    float at(std::size_t c, std::size_t h, std::size_t w) const;

    /**
     * Unchecked fast-path accessors for the numerical kernels
     * (src/dnn/pooling.cc): no rank or bounds checks in Release builds,
     * MINDFUL_DEBUG_ASSERT-backed otherwise. Callers must have
     * validated the shape once per call before entering their loops.
     */
    float *
    rowData(std::size_t c, std::size_t h)
    {
        MINDFUL_DEBUG_ASSERT(rank() == 3 && c < _shape[0] &&
                                 h < _shape[1],
                             "rowData index out of range");
        return _data.data() + (c * _shape[1] + h) * _shape[2];
    }

    const float *
    rowData(std::size_t c, std::size_t h) const
    {
        MINDFUL_DEBUG_ASSERT(rank() == 3 && c < _shape[0] &&
                                 h < _shape[1],
                             "rowData index out of range");
        return _data.data() + (c * _shape[1] + h) * _shape[2];
    }

    float
    atFast(std::size_t c, std::size_t h, std::size_t w) const
    {
        MINDFUL_DEBUG_ASSERT(rank() == 3 && c < _shape[0] &&
                                 h < _shape[1] && w < _shape[2],
                             "atFast index out of range");
        return _data[(c * _shape[1] + h) * _shape[2] + w];
    }

    /** Reshape in place; element count must be preserved. */
    void reshape(Shape shape);

    /** Largest |element| (for comparisons in tests). */
    float maxAbs() const;

    /** Max |a_i - b_i| across two same-shaped tensors. */
    float maxAbsDiff(const Tensor &other) const;

    /** Index of the largest element (argmax over the flat buffer). */
    std::size_t argmax() const;

  private:
    Shape _shape;
    std::vector<float> _data;
};

} // namespace mindful::dnn

#endif // MINDFUL_DNN_TENSOR_HH
