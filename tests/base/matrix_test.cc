/**
 * @file
 * Dense matrix algebra tests, including parameterized solve
 * round-trips over a range of sizes.
 */

#include <gtest/gtest.h>

#include "base/matrix.hh"
#include "base/random.hh"

namespace mindful {
namespace {

TEST(MatrixTest, ConstructionAndIndexing)
{
    Matrix m(2, 3);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    m(1, 2) = 5.0;
    EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
    EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

TEST(MatrixTest, InitializerListLayout)
{
    Matrix m{{1.0, 2.0}, {3.0, 4.0}};
    EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
    EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(MatrixTest, AdditionSubtraction)
{
    Matrix a{{1.0, 2.0}, {3.0, 4.0}};
    Matrix b{{4.0, 3.0}, {2.0, 1.0}};
    Matrix sum = a + b;
    EXPECT_DOUBLE_EQ(sum(0, 0), 5.0);
    EXPECT_DOUBLE_EQ(sum(1, 1), 5.0);
    Matrix diff = a - b;
    EXPECT_DOUBLE_EQ(diff(0, 0), -3.0);
}

TEST(MatrixTest, Product)
{
    Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
    Matrix b{{7.0, 8.0}, {9.0, 10.0}, {11.0, 12.0}};
    Matrix p = a * b;
    ASSERT_EQ(p.rows(), 2u);
    ASSERT_EQ(p.cols(), 2u);
    EXPECT_DOUBLE_EQ(p(0, 0), 58.0);
    EXPECT_DOUBLE_EQ(p(0, 1), 64.0);
    EXPECT_DOUBLE_EQ(p(1, 0), 139.0);
    EXPECT_DOUBLE_EQ(p(1, 1), 154.0);
}

TEST(MatrixTest, IdentityIsMultiplicativeNeutral)
{
    Matrix a{{2.0, -1.0}, {0.5, 3.0}};
    EXPECT_DOUBLE_EQ((a * Matrix::identity(2)).maxAbsDiff(a), 0.0);
    EXPECT_DOUBLE_EQ((Matrix::identity(2) * a).maxAbsDiff(a), 0.0);
}

TEST(MatrixTest, Transpose)
{
    Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
    Matrix t = a.transpose();
    ASSERT_EQ(t.rows(), 3u);
    EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
    EXPECT_DOUBLE_EQ(t.transpose().maxAbsDiff(a), 0.0);
}

TEST(MatrixTest, InverseKnownMatrix)
{
    Matrix a{{4.0, 7.0}, {2.0, 6.0}};
    Matrix inv = a.inverse();
    EXPECT_NEAR(inv(0, 0), 0.6, 1e-12);
    EXPECT_NEAR(inv(0, 1), -0.7, 1e-12);
    EXPECT_NEAR(inv(1, 0), -0.2, 1e-12);
    EXPECT_NEAR(inv(1, 1), 0.4, 1e-12);
}

TEST(MatrixTest, PivotingHandlesZeroLeadingEntry)
{
    Matrix a{{0.0, 1.0}, {1.0, 0.0}};
    Matrix inv = a.inverse();
    EXPECT_NEAR((a * inv).maxAbsDiff(Matrix::identity(2)), 0.0, 1e-12);
}

/** Property sweep: A * A^-1 == I for random well-conditioned A. */
class MatrixSolveRoundTrip : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(MatrixSolveRoundTrip, InverseRoundTrips)
{
    std::size_t n = GetParam();
    Rng rng(1234 + n);
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j)
            a(i, j) = rng.gaussian();
        a(i, i) += static_cast<double>(n); // diagonal dominance
    }
    Matrix inv = a.inverse();
    EXPECT_LT((a * inv).maxAbsDiff(Matrix::identity(n)), 1e-9);
}

TEST_P(MatrixSolveRoundTrip, SolveMatchesDirectProduct)
{
    std::size_t n = GetParam();
    Rng rng(987 + n);
    Matrix a(n, n);
    Matrix x_true(n, 2);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j)
            a(i, j) = rng.gaussian();
        a(i, i) += static_cast<double>(n);
        x_true(i, 0) = rng.gaussian();
        x_true(i, 1) = rng.gaussian();
    }
    Matrix b = a * x_true;
    Matrix x = a.solve(b);
    EXPECT_LT(x.maxAbsDiff(x_true), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatrixSolveRoundTrip,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 32));

TEST(MatrixTest, NormAndVectorHelpers)
{
    Matrix v = Matrix::columnVector({3.0, 4.0});
    EXPECT_DOUBLE_EQ(v.norm(), 5.0);
    auto flat = v.toVector();
    ASSERT_EQ(flat.size(), 2u);
    EXPECT_DOUBLE_EQ(flat[1], 4.0);
}

TEST(MatrixTest, Diagonal)
{
    Matrix d = Matrix::diagonal({1.0, 2.0, 3.0});
    EXPECT_DOUBLE_EQ(d(1, 1), 2.0);
    EXPECT_DOUBLE_EQ(d(0, 1), 0.0);
}

TEST(MatrixDeathTest, SingularMatrixIsFatal)
{
    Matrix singular{{1.0, 2.0}, {2.0, 4.0}};
    EXPECT_EXIT(singular.inverse(), ::testing::ExitedWithCode(1),
                "singular");
}

TEST(MatrixDeathTest, ShapeMismatchPanics)
{
    Matrix a(2, 3);
    Matrix b(2, 3);
    EXPECT_DEATH(a * b, "shape mismatch");
}

} // namespace
} // namespace mindful
