/**
 * @file
 * Red-black SOR equivalence and convergence-policy tests.
 *
 * The production bio-heat sweep (BioHeatSolver::solve) is red-black
 * ordered and branch-hoisted; the original lexicographic sweep is
 * retained as solveReference. Both iterate the same discretized
 * system to the same fixed point, so their fields must agree to
 * solver tolerance — that equivalence and the relative
 * (flux-scale-invariant) convergence criterion are pinned here.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "thermal/bioheat.hh"

namespace mindful::thermal {
namespace {

BioHeatConfig
coarseConfig(BioHeatGeometry geometry)
{
    BioHeatConfig config;
    config.geometry = geometry;
    config.gridSpacing = Length::millimetres(0.5);
    config.domainWidth = Length::millimetres(25.0);
    config.domainDepth = Length::millimetres(12.0);
    config.tolerance = 1e-8;
    return config;
}

/** Largest |a - b| over two equally-shaped fields. */
double
maxFieldDiff(const BioHeatResult &a, const BioHeatResult &b)
{
    EXPECT_EQ(a.field.size(), b.field.size());
    double diff = 0.0;
    for (std::size_t i = 0; i < a.field.size(); ++i)
        diff = std::max(diff, std::abs(a.field[i] - b.field[i]));
    return diff;
}

TEST(RedBlackTest, MatchesReferenceAxisymmetric)
{
    BioHeatSolver solver({}, coarseConfig(BioHeatGeometry::Axisymmetric));
    Power p = Power::milliwatts(57.6);
    Area a = Area::squareMillimetres(144.0);
    auto fast = solver.solve(p, a);
    auto ref = solver.solveReference(p, a);
    // Both orderings converge to the fixed point of the same
    // discretization; residual tolerance 1e-8 leaves a few orders of
    // magnitude of slack against this bound.
    EXPECT_LT(maxFieldDiff(fast, ref), 1e-5 * ref.peakRise.inKelvin());
    EXPECT_NEAR(fast.peakRise.inKelvin(), ref.peakRise.inKelvin(),
                1e-5 * ref.peakRise.inKelvin());
    EXPECT_NEAR(fast.meanContactRise.inKelvin(),
                ref.meanContactRise.inKelvin(),
                1e-5 * ref.peakRise.inKelvin());
}

TEST(RedBlackTest, MatchesReferencePlanar)
{
    BioHeatSolver solver({}, coarseConfig(BioHeatGeometry::Planar));
    Power p = Power::milliwatts(20.0);
    Area a = Area::squareMillimetres(64.0);
    auto fast = solver.solve(p, a);
    auto ref = solver.solveReference(p, a);
    EXPECT_LT(maxFieldDiff(fast, ref), 1e-5 * ref.peakRise.inKelvin());
}

TEST(RedBlackTest, MatchesReferenceWithFluxProfile)
{
    // Non-uniform profile exercises the per-column flux terms.
    BioHeatSolver solver({}, coarseConfig(BioHeatGeometry::Axisymmetric));
    Power p = Power::milliwatts(25.6);
    Area a = Area::squareMillimetres(64.0);
    std::vector<double> profile{4.0, 2.0, 1.0, 0.5};
    auto fast = solver.solveProfile(p, a, profile);
    auto ref = solver.solveProfileReference(p, a, profile);
    EXPECT_LT(maxFieldDiff(fast, ref), 1e-5 * ref.peakRise.inKelvin());
}

TEST(RedBlackTest, IterationCountPinnedOnSeedConfig)
{
    // Regression pin for the convergence policy: the default
    // (paper-seed) configuration at the 40 mW/cm^2 safety operating
    // point converges in 160 red-black sweeps. The band tolerates
    // compiler/flag-level float variance (the residual is measured
    // every 8th sweep, so one stride each way is generous); an escape
    // means the discretization, relaxation, or convergence criterion
    // changed — which silently re-scales every figure built on the
    // solver and must be a deliberate, reviewed change.
    BioHeatSolver solver({}, {});
    auto result = solver.solve(Power::milliwatts(57.6),
                               Area::squareMillimetres(144.0));
    EXPECT_GE(result.iterations, 144u);
    EXPECT_LE(result.iterations, 176u);
}

TEST(RedBlackTest, IterationCountInvariantUnderFluxScale)
{
    // The Pennes equation is linear in dT and the tolerance is
    // relative to the running peak rise, so the iterate sequences for
    // 1 mW and 1 W are exact scalar multiples: identical counts.
    BioHeatSolver solver({}, {});
    Area a = Area::squareMillimetres(144.0);
    auto weak = solver.solve(Power::milliwatts(1.0), a);
    auto strong = solver.solve(Power::watts(1.0), a);
    EXPECT_EQ(weak.iterations, strong.iterations);
}

TEST(RedBlackTest, ZeroPowerConvergesImmediately)
{
    // All-zero field: residual 0 <= tolerance * peak 0 holds at the
    // first measured sweep — the relative criterion must not divide
    // by or stall on a zero peak.
    BioHeatSolver solver({}, {});
    auto result = solver.solve(Power::milliwatts(0.0),
                               Area::squareMillimetres(64.0));
    EXPECT_NEAR(result.peakRise.inKelvin(), 0.0, 1e-12);
    EXPECT_LE(result.iterations, 8u);
}

} // namespace
} // namespace mindful::thermal
