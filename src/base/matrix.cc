#include "base/matrix.hh"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "base/logging.hh"

namespace mindful {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : _rows(rows), _cols(cols), _data(rows * cols, 0.0)
{
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows)
{
    _rows = rows.size();
    _cols = _rows ? rows.begin()->size() : 0;
    _data.reserve(_rows * _cols);
    for (const auto &row : rows) {
        MINDFUL_ASSERT(row.size() == _cols,
                       "all matrix rows must have equal width");
        _data.insert(_data.end(), row.begin(), row.end());
    }
}

Matrix
Matrix::identity(std::size_t n)
{
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        m(i, i) = 1.0;
    return m;
}

Matrix
Matrix::diagonal(const std::vector<double> &d)
{
    Matrix m(d.size(), d.size());
    for (std::size_t i = 0; i < d.size(); ++i)
        m(i, i) = d[i];
    return m;
}

Matrix
Matrix::columnVector(const std::vector<double> &v)
{
    Matrix m(v.size(), 1);
    for (std::size_t i = 0; i < v.size(); ++i)
        m(i, 0) = v[i];
    return m;
}

double &
Matrix::operator()(std::size_t r, std::size_t c)
{
    MINDFUL_ASSERT(r < _rows && c < _cols, "matrix index out of range");
    return _data[r * _cols + c];
}

double
Matrix::operator()(std::size_t r, std::size_t c) const
{
    MINDFUL_ASSERT(r < _rows && c < _cols, "matrix index out of range");
    return _data[r * _cols + c];
}

Matrix
Matrix::operator+(const Matrix &other) const
{
    MINDFUL_ASSERT(_rows == other._rows && _cols == other._cols,
                   "matrix addition requires equal shapes");
    Matrix out(_rows, _cols);
    for (std::size_t i = 0; i < _data.size(); ++i)
        out._data[i] = _data[i] + other._data[i];
    return out;
}

Matrix
Matrix::operator-(const Matrix &other) const
{
    MINDFUL_ASSERT(_rows == other._rows && _cols == other._cols,
                   "matrix subtraction requires equal shapes");
    Matrix out(_rows, _cols);
    for (std::size_t i = 0; i < _data.size(); ++i)
        out._data[i] = _data[i] - other._data[i];
    return out;
}

Matrix
Matrix::operator*(const Matrix &other) const
{
    MINDFUL_ASSERT(_cols == other._rows,
                   "matrix product shape mismatch: ", _rows, "x", _cols,
                   " * ", other._rows, "x", other._cols);
    Matrix out(_rows, other._cols);
    for (std::size_t i = 0; i < _rows; ++i) {
        for (std::size_t k = 0; k < _cols; ++k) {
            double aik = _data[i * _cols + k];
            if (aik == 0.0)
                continue;
            const double *brow = &other._data[k * other._cols];
            double *orow = &out._data[i * other._cols];
            for (std::size_t j = 0; j < other._cols; ++j)
                orow[j] += aik * brow[j];
        }
    }
    return out;
}

Matrix
Matrix::operator*(double k) const
{
    Matrix out(_rows, _cols);
    for (std::size_t i = 0; i < _data.size(); ++i)
        out._data[i] = _data[i] * k;
    return out;
}

Matrix &
Matrix::operator+=(const Matrix &other)
{
    MINDFUL_ASSERT(_rows == other._rows && _cols == other._cols,
                   "matrix addition requires equal shapes");
    for (std::size_t i = 0; i < _data.size(); ++i)
        _data[i] += other._data[i];
    return *this;
}

Matrix
Matrix::transpose() const
{
    Matrix out(_cols, _rows);
    for (std::size_t i = 0; i < _rows; ++i)
        for (std::size_t j = 0; j < _cols; ++j)
            out(j, i) = (*this)(i, j);
    return out;
}

Matrix
Matrix::inverse() const
{
    MINDFUL_ASSERT(_rows == _cols, "only square matrices invert");
    return solve(identity(_rows));
}

Matrix
Matrix::solve(const Matrix &b) const
{
    MINDFUL_ASSERT(_rows == _cols, "solve requires a square matrix");
    MINDFUL_ASSERT(b._rows == _rows, "solve rhs row count mismatch");

    // Augmented Gauss-Jordan with partial pivoting.
    const std::size_t n = _rows;
    Matrix a(*this);
    Matrix x(b);

    for (std::size_t col = 0; col < n; ++col) {
        std::size_t pivot = col;
        double best = std::abs(a(col, col));
        for (std::size_t r = col + 1; r < n; ++r) {
            if (std::abs(a(r, col)) > best) {
                best = std::abs(a(r, col));
                pivot = r;
            }
        }
        if (best < 1e-300) {
            MINDFUL_FATAL("singular matrix in solve (pivot ", best,
                          " at column ", col, ")");
        }
        if (pivot != col) {
            for (std::size_t j = 0; j < n; ++j)
                std::swap(a(col, j), a(pivot, j));
            for (std::size_t j = 0; j < x._cols; ++j)
                std::swap(x(col, j), x(pivot, j));
        }
        double inv_p = 1.0 / a(col, col);
        for (std::size_t j = 0; j < n; ++j)
            a(col, j) *= inv_p;
        for (std::size_t j = 0; j < x._cols; ++j)
            x(col, j) *= inv_p;
        for (std::size_t r = 0; r < n; ++r) {
            if (r == col)
                continue;
            double factor = a(r, col);
            if (factor == 0.0)
                continue;
            for (std::size_t j = 0; j < n; ++j)
                a(r, j) -= factor * a(col, j);
            for (std::size_t j = 0; j < x._cols; ++j)
                x(r, j) -= factor * x(col, j);
        }
    }
    return x;
}

double
Matrix::norm() const
{
    double sum = 0.0;
    for (double v : _data)
        sum += v * v;
    return std::sqrt(sum);
}

double
Matrix::maxAbsDiff(const Matrix &other) const
{
    MINDFUL_ASSERT(_rows == other._rows && _cols == other._cols,
                   "maxAbsDiff requires equal shapes");
    double worst = 0.0;
    for (std::size_t i = 0; i < _data.size(); ++i)
        worst = std::max(worst, std::abs(_data[i] - other._data[i]));
    return worst;
}

std::vector<double>
Matrix::toVector() const
{
    MINDFUL_ASSERT(_rows == 1 || _cols == 1,
                   "toVector requires a vector-shaped matrix");
    return _data;
}

std::ostream &
operator<<(std::ostream &os, const Matrix &m)
{
    os << '[';
    for (std::size_t i = 0; i < m.rows(); ++i) {
        if (i)
            os << "; ";
        for (std::size_t j = 0; j < m.cols(); ++j) {
            if (j)
                os << ' ';
            os << m(i, j);
        }
    }
    return os << ']';
}

} // namespace mindful
