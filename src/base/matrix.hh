/**
 * @file
 * Small dense matrix algebra.
 *
 * The Kalman decoder baseline and the model-fitting code
 * need modest dense linear algebra: products, transposes, inverses
 * and linear solves on matrices with tens to a few hundred rows. This
 * is a deliberately simple row-major implementation with
 * partial-pivoting Gauss-Jordan elimination — no external BLAS.
 */

#ifndef MINDFUL_BASE_MATRIX_HH
#define MINDFUL_BASE_MATRIX_HH

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <vector>

namespace mindful {

/** Row-major dense matrix of doubles. */
class Matrix
{
  public:
    Matrix() = default;

    /** rows x cols matrix of zeros. */
    Matrix(std::size_t rows, std::size_t cols);

    /** Build from nested initializer lists (rows of equal width). */
    Matrix(std::initializer_list<std::initializer_list<double>> rows);

    static Matrix identity(std::size_t n);
    static Matrix diagonal(const std::vector<double> &d);

    /** Column vector from a flat list. */
    static Matrix columnVector(const std::vector<double> &v);

    std::size_t rows() const { return _rows; }
    std::size_t cols() const { return _cols; }
    bool empty() const { return _data.empty(); }

    double &operator()(std::size_t r, std::size_t c);
    double operator()(std::size_t r, std::size_t c) const;

    Matrix operator+(const Matrix &other) const;
    Matrix operator-(const Matrix &other) const;
    Matrix operator*(const Matrix &other) const;
    Matrix operator*(double k) const;

    Matrix &operator+=(const Matrix &other);

    Matrix transpose() const;

    /**
     * Inverse by Gauss-Jordan with partial pivoting.
     * Panics on non-square input; fatal on (near-)singular input.
     */
    Matrix inverse() const;

    /** Solve A x = b for x (b may have multiple columns). */
    Matrix solve(const Matrix &b) const;

    /** Frobenius norm. */
    double norm() const;

    /** Max |a_ij - b_ij|; matrices must be the same shape. */
    double maxAbsDiff(const Matrix &other) const;

    /** Flatten a single-column/single-row matrix to a std::vector. */
    std::vector<double> toVector() const;

  private:
    std::size_t _rows = 0;
    std::size_t _cols = 0;
    std::vector<double> _data;
};

std::ostream &operator<<(std::ostream &os, const Matrix &m);

} // namespace mindful

#endif // MINDFUL_BASE_MATRIX_HH
