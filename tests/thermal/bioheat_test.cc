/**
 * @file
 * Pennes bio-heat solver tests: validates the paper's 40 mW/cm^2
 * safety premise from first principles and the physical properties
 * (linearity, monotonicity, geometry ordering) of the solver.
 *
 * These use a coarser grid than the default to keep runtimes low;
 * the physics assertions are grid-robust.
 */

#include <gtest/gtest.h>

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

TEST(TissuePropertiesTest, PenetrationDepthIsMillimetreScale)
{
    TissueProperties tissue;
    // sqrt(k / (rho c w)) with textbook cortex numbers: ~2-4 mm.
    EXPECT_GT(tissue.penetrationDepth().inMetres(), 1e-3);
    EXPECT_LT(tissue.penetrationDepth().inMetres(), 5e-3);
}

TEST(BioHeatTest, OneDimensionalEstimateAnchor)
{
    BioHeatSolver solver({}, coarseConfig(BioHeatGeometry::Axisymmetric));
    auto dt = solver.oneDimensionalEstimate(
        PowerDensity::milliwattsPerSquareCentimetre(40.0));
    // q'' * delta / k with defaults: ~2.5 K — the right magnitude for
    // the paper's 1-2 degC premise (1-D ignores lateral spreading).
    EXPECT_GT(dt.inCelsius(), 1.5);
    EXPECT_LT(dt.inCelsius(), 3.5);
}

TEST(BioHeatTest, PaperSafetyPremiseHolds)
{
    // A BISC-sized implant (144 mm^2) at exactly the 40 mW/cm^2 cap
    // must keep the peak tissue temperature rise in the 1-2 degC
    // band the paper cites (Sec. 3.2).
    BioHeatSolver solver({}, coarseConfig(BioHeatGeometry::Axisymmetric));
    auto result = solver.solve(Power::milliwatts(57.6),
                               Area::squareMillimetres(144.0));
    EXPECT_GT(result.peakRise.inCelsius(), 0.8);
    EXPECT_LT(result.peakRise.inCelsius(), 2.5);
    EXPECT_LE(result.meanContactRise.inKelvin(),
              result.peakRise.inKelvin());
}

TEST(BioHeatTest, TemperatureScalesLinearlyWithPower)
{
    // Pennes is linear in dT, so doubling power doubles the rise.
    BioHeatSolver solver({}, coarseConfig(BioHeatGeometry::Axisymmetric));
    Area area = Area::squareMillimetres(64.0);
    auto base = solver.solve(Power::milliwatts(10.0), area);
    auto doubled = solver.solve(Power::milliwatts(20.0), area);
    EXPECT_NEAR(doubled.peakRise.inKelvin(),
                2.0 * base.peakRise.inKelvin(),
                1e-6 * base.peakRise.inKelvin() + 1e-9);
}

TEST(BioHeatTest, ZeroPowerMeansZeroRise)
{
    BioHeatSolver solver({}, coarseConfig(BioHeatGeometry::Axisymmetric));
    auto result = solver.solve(Power::milliwatts(0.0),
                               Area::squareMillimetres(64.0));
    EXPECT_NEAR(result.peakRise.inKelvin(), 0.0, 1e-9);
}

TEST(BioHeatTest, LargerAreaAtSameDensityWarmsMore)
{
    // At fixed areal density a larger implant approaches the 1-D
    // limit: less relative lateral relief, higher peak.
    BioHeatSolver solver({}, coarseConfig(BioHeatGeometry::Axisymmetric));
    auto small = solver.solve(Power::milliwatts(4.0),
                              Area::squareMillimetres(10.0));
    auto large = solver.solve(Power::milliwatts(40.0),
                              Area::squareMillimetres(100.0));
    EXPECT_GT(large.peakRise.inKelvin(), small.peakRise.inKelvin());
}

TEST(BioHeatTest, PerfusionCoolsTheTissue)
{
    BioHeatConfig config = coarseConfig(BioHeatGeometry::Axisymmetric);
    TissueProperties weak;
    weak.perfusionRate = 0.004;
    TissueProperties strong;
    strong.perfusionRate = 0.02;

    Power p = Power::milliwatts(20.0);
    Area a = Area::squareMillimetres(64.0);
    auto weak_result = BioHeatSolver(weak, config).solve(p, a);
    auto strong_result = BioHeatSolver(strong, config).solve(p, a);
    EXPECT_GT(weak_result.peakRise.inKelvin(),
              strong_result.peakRise.inKelvin());
}

TEST(BioHeatTest, PlanarGeometryBoundsAxisymmetric)
{
    // An infinite strip has no out-of-plane spreading, so it must be
    // at least as hot as the equal-area disc.
    Power p = Power::milliwatts(20.0);
    Area a = Area::squareMillimetres(64.0);
    auto axi = BioHeatSolver({}, coarseConfig(
                                     BioHeatGeometry::Axisymmetric))
                   .solve(p, a);
    auto planar =
        BioHeatSolver({}, coarseConfig(BioHeatGeometry::Planar)).solve(p, a);
    EXPECT_GE(planar.peakRise.inKelvin(), axi.peakRise.inKelvin());
}

TEST(BioHeatTest, OneDimensionalEstimateIsAnUpperBound)
{
    BioHeatSolver solver({}, coarseConfig(BioHeatGeometry::Axisymmetric));
    Power p = Power::milliwatts(25.6);
    Area a = Area::squareMillimetres(64.0);
    auto numeric = solver.solve(p, a);
    auto analytic = solver.oneDimensionalEstimate(p / a);
    EXPECT_LE(numeric.peakRise.inKelvin(),
              analytic.inKelvin() * 1.02);
}

TEST(BioHeatTest, UniformDissipationAssumptionIsMild)
{
    // The paper argues non-uniform on-chip power still heats tissue
    // ~uniformly. Compare a uniform disc against a strongly
    // centre-weighted profile of equal total power: the hotspot
    // penalty should exist but stay bounded (same order).
    BioHeatSolver solver({}, coarseConfig(BioHeatGeometry::Axisymmetric));
    Power p = Power::milliwatts(25.6);
    Area a = Area::squareMillimetres(64.0);
    auto uniform = solver.solve(p, a);
    auto hotspot = solver.solveProfile(p, a, {4.0, 2.0, 1.0, 0.5});
    EXPECT_GT(hotspot.peakRise.inKelvin(), uniform.peakRise.inKelvin());
    EXPECT_LT(hotspot.peakRise.inKelvin(),
              2.5 * uniform.peakRise.inKelvin());
}

TEST(BioHeatTest, FieldShapeAndConvergenceMetadata)
{
    auto config = coarseConfig(BioHeatGeometry::Axisymmetric);
    BioHeatSolver solver({}, config);
    auto result = solver.solve(Power::milliwatts(10.0),
                               Area::squareMillimetres(25.0));
    EXPECT_EQ(result.field.size(), result.fieldRows * result.fieldCols);
    EXPECT_GT(result.iterations, 1u);
    // Far-field boundary stays pinned at dT = 0.
    EXPECT_DOUBLE_EQ(result.field[result.field.size() - 1], 0.0);
}

TEST(BioHeatTest, TemperatureDecaysWithDepth)
{
    auto config = coarseConfig(BioHeatGeometry::Axisymmetric);
    BioHeatSolver solver({}, config);
    auto result = solver.solve(Power::milliwatts(20.0),
                               Area::squareMillimetres(64.0));
    // Walk down the axis (column 0): strictly cooler with depth.
    double prev = result.field[0];
    for (std::size_t i = 1; i < result.fieldRows; ++i) {
        double current = result.field[i * result.fieldCols];
        EXPECT_LE(current, prev + 1e-12);
        prev = current;
    }
}

TEST(BioHeatTest, IterationCountPinnedOnSeedConfig)
{
    // Regression pin for the convergence policy: the default
    // (paper-seed) configuration at the 40 mW/cm^2 safety operating
    // point converges in 169 sweeps. The band tolerates
    // compiler/flag-level float variance; an escape means the
    // discretization, relaxation, or convergence criterion changed —
    // which silently re-scales every figure built on the solver and
    // must be a deliberate, reviewed change.
    BioHeatSolver solver({}, {});
    auto result = solver.solve(Power::milliwatts(57.6),
                               Area::squareMillimetres(144.0));
    EXPECT_GE(result.iterations, 144u);
    EXPECT_LE(result.iterations, 176u);
}

TEST(BioHeatTest, IterationCountInvariantUnderFluxScale)
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

TEST(BioHeatTest, ZeroPowerConvergesImmediately)
{
    // All-zero field: residual 0 <= tolerance * peak 0 holds at the
    // first sweep — the relative criterion must not divide by or
    // stall on a zero peak.
    BioHeatSolver solver({}, {});
    auto result = solver.solve(Power::milliwatts(0.0),
                               Area::squareMillimetres(64.0));
    EXPECT_NEAR(result.peakRise.inKelvin(), 0.0, 1e-12);
    EXPECT_LE(result.iterations, 8u);
}

TEST(BioHeatDeathTest, ImplantLargerThanDomainPanics)
{
    BioHeatSolver solver({}, coarseConfig(BioHeatGeometry::Axisymmetric));
    EXPECT_DEATH(solver.solve(Power::milliwatts(10.0),
                              Area::squareCentimetres(50.0)),
                 "wider than the simulated tissue");
}

} // namespace
} // namespace mindful::thermal
