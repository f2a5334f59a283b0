/**
 * @file
 * Steady-state Pennes bio-heat solver.
 *
 * The paper's safety premise — that 40 mW/cm^2 of uniform surface
 * heating keeps the cortical temperature rise below ~2 degC thanks to
 * blood perfusion — is taken from the thermal literature (Wolf 2008,
 * Serrano et al. 2020). This module re-derives that premise from
 * first principles: it solves the steady Pennes equation
 *
 *     k * laplacian(dT) - rho_b * c_b * w_b * dT + q = 0
 *
 * on a tissue slab heated by an implant of known area and power,
 * using a finite-difference successive-over-relaxation scheme. Two
 * geometries are supported:
 *
 *  - Axisymmetric: the implant is modelled as a disc of equal area on
 *    top of a tissue cylinder (the realistic case for a compact chip).
 *  - Planar: a 2-D cross-section through an infinite strip implant
 *    (an upper bound on the temperature rise, no lateral spreading in
 *    the third dimension).
 *
 * The solver also quantifies the hotspot penalty a *non-uniform*
 * surface flux would incur (solveProfile). Real dies do not pay it:
 * silicon conducts ~300x better than tissue, flattening on-chip power
 * gradients before they reach the brain — which is the paper's
 * argument for the uniform-dissipation assumption.
 */

#ifndef MINDFUL_THERMAL_BIOHEAT_HH
#define MINDFUL_THERMAL_BIOHEAT_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/units.hh"

namespace mindful::thermal {

/** Tissue and blood parameters for the Pennes model. */
struct TissueProperties
{
    /** Thermal conductivity of grey matter. */
    ThermalConductivity conductivity =
        ThermalConductivity::wattsPerMetreKelvin(0.51);

    /** Blood density. */
    MassDensity bloodDensity = MassDensity::kilogramsPerCubicMetre(1050.0);

    /** Blood specific heat. */
    SpecificHeat bloodSpecificHeat =
        SpecificHeat::joulesPerKilogramKelvin(3600.0);

    /** Blood perfusion rate [1 / s]. Cortex is among the most
     *  perfused tissues in the body (the paper's Sec. 3.2 premise);
     *  0.017 1/s sits at the well-perfused end of the literature
     *  range and reproduces the 40 mW/cm^2 <-> ~2 degC equivalence. */
    double perfusionRate = 0.017; // lint: raw-ok(volumetric perfusion in 1/s; the thermal literature quotes it raw and no Quantity models it)

    /** Volumetric heat-sink coefficient rho_b * c_b * w_b [W/(m^3 K)]. */
    double
    perfusionCoefficient() const
    {
        return bloodDensity.inKilogramsPerCubicMetre() *
               bloodSpecificHeat.inJoulesPerKilogramKelvin() *
               perfusionRate;
    }

    /**
     * Perfusion penetration depth sqrt(k / (rho_b c_b w_b)):
     * the length scale over which blood flow absorbs surface heat.
     */
    Length penetrationDepth() const;
};

/** Geometry selector for the solver. */
enum class BioHeatGeometry : std::uint8_t {
    Axisymmetric, //!< disc implant on a tissue cylinder
    Planar        //!< infinite strip implant, 2-D cross-section
};

/** Discretization and iteration controls. */
struct BioHeatConfig
{
    BioHeatGeometry geometry = BioHeatGeometry::Axisymmetric;

    /** Grid spacing. */
    Length gridSpacing = Length::millimetres(0.25);

    /** Radial (or lateral) extent of the simulated tissue. */
    Length domainWidth = Length::millimetres(30.0);

    /** Depth of the simulated tissue below the implant. */
    Length domainDepth = Length::millimetres(15.0);

    /** SOR relaxation factor in (1, 2). */
    double relaxation = 1.85;

    /**
     * *Relative* convergence threshold: the sweep is converged when
     * the largest relaxed nodal update is <= tolerance times the
     * running peak temperature rise. Because the Pennes equation is
     * linear in dT, this makes the iteration count (and the relative
     * accuracy of the answer) independent of the flux scale — 1 mW
     * and 1 W converge identically, where the previous absolute
     * threshold made weak fluxes converge early and strong fluxes
     * grind.
     */
    double tolerance = 1e-7;

    /** Iteration cap (diverging configurations fail loudly). */
    std::size_t maxIterations = 200000;
};

/** Solution summary returned by BioHeatSolver::solve(). */
struct BioHeatResult
{
    /** Peak tissue temperature rise (at the implant centre). */
    TemperatureDelta peakRise;

    /** Mean temperature rise over the implant contact surface. */
    TemperatureDelta meanContactRise;

    /** Iterations the SOR sweep needed to converge. */
    std::size_t iterations = 0;

    /** Full temperature field, row-major [depth][width], in kelvin. */
    std::vector<double> field;
    std::size_t fieldRows = 0;
    std::size_t fieldCols = 0;
};

/**
 * Finite-difference steady-state Pennes solver.
 *
 * Boundary conditions: the implant footprint on the top surface
 * injects a uniform (or caller-supplied, see solveProfile) heat flux;
 * the remaining top surface is adiabatic (the skull side conducts
 * poorly); the far radial and bottom boundaries are held at the
 * baseline perfused-tissue temperature (dT = 0).
 *
 * The sweep is lexicographic Gauss-Seidel with over-relaxation,
 * serial: the default grid is a few thousand cells, too small for a
 * pool hand-off to pay. The convergence residual is the largest
 * relaxed update of each sweep.
 */
class BioHeatSolver
{
  public:
    BioHeatSolver(TissueProperties tissue, BioHeatConfig config);

    /**
     * Solve for an implant dissipating @p total over @p implant_area.
     *
     * @return converged solution summary; panics if the SOR sweep
     *         fails to converge within the iteration cap.
     */
    BioHeatResult solve(Power total, Area implant_area) const;

    /**
     * Solve with a non-uniform flux profile across the implant.
     *
     * @param implant_area total contact area.
     * @param profile relative dissipation per equal-width annulus
     *        (axisymmetric) or strip segment (planar), normalized
     *        internally so the integral equals @p total.
     */
    BioHeatResult solveProfile(Power total, Area implant_area,
                               const std::vector<double> &profile) const;

    /**
     * Closed-form 1-D estimate dT = q'' * delta / k used as a sanity
     * anchor for the numerical solution (upper bound: no lateral
     * spreading at all).
     */
    TemperatureDelta oneDimensionalEstimate(PowerDensity flux) const;

    const TissueProperties &tissue() const { return _tissue; }
    const BioHeatConfig &config() const { return _config; }

  private:
    TissueProperties _tissue;
    BioHeatConfig _config;
};

} // namespace mindful::thermal

#endif // MINDFUL_THERMAL_BIOHEAT_HH
