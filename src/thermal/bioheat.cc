#include "thermal/bioheat.hh"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "base/logging.hh"
#include "obs/collector.hh"
#include "obs/metrics.hh"

namespace mindful::thermal {

Length
TissueProperties::penetrationDepth() const
{
    return Length::metres(std::sqrt(conductivity.inWattsPerMetreKelvin() /
                                    perfusionCoefficient()));
}

BioHeatSolver::BioHeatSolver(TissueProperties tissue, BioHeatConfig config)
    : _tissue(tissue), _config(config)
{
    MINDFUL_ASSERT(_tissue.conductivity.inWattsPerMetreKelvin() > 0.0,
                   "tissue conductivity must be positive");
    MINDFUL_ASSERT(_tissue.perfusionCoefficient() > 0.0,
                   "perfusion coefficient must be positive");
    MINDFUL_ASSERT(_config.gridSpacing.inMetres() > 0.0,
                   "grid spacing must be positive");
    MINDFUL_ASSERT(_config.domainWidth > 4.0 * _config.gridSpacing &&
                       _config.domainDepth > 4.0 * _config.gridSpacing,
                   "bio-heat domain too small for the grid spacing");
    MINDFUL_ASSERT(_config.relaxation > 0.0 && _config.relaxation < 2.0,
                   "SOR relaxation must lie in (0, 2)");
}

TemperatureDelta
BioHeatSolver::oneDimensionalEstimate(PowerDensity flux) const
{
    // Semi-infinite perfused half-space under uniform flux:
    // dT(0) = q'' * delta / k with delta the perfusion depth.
    double q = flux.inWattsPerSquareMetre();
    return TemperatureDelta::kelvin(
        q * _tissue.penetrationDepth().inMetres() /
        _tissue.conductivity.inWattsPerMetreKelvin());
}

namespace {

/** Discretized problem: grid, stencil constants and surface flux. */
struct Discretization
{
    std::size_t rows = 0;
    std::size_t cols = 0;
    double h = 0.0;     //!< grid spacing [m]
    double kh2 = 0.0;   //!< k / h^2
    double beta = 0.0;  //!< perfusion coefficient [W/(m^3 K)]
    double omega = 0.0; //!< SOR relaxation
    double extent = 0.0; //!< contact half-extent [m]
    bool axi = false;
    std::vector<double> flux; //!< per-column surface flux [W/m^2]
};

Discretization
discretize(const TissueProperties &tissue, const BioHeatConfig &config,
           Power total, Area implant_area,
           const std::vector<double> &profile)
{
    MINDFUL_ASSERT(total.inWatts() >= 0.0, "implant power must be >= 0");
    MINDFUL_ASSERT(implant_area.inSquareMetres() > 0.0,
                   "implant area must be positive");
    MINDFUL_ASSERT(!profile.empty(), "flux profile must not be empty");
    for (double p : profile)
        MINDFUL_ASSERT(p >= 0.0, "flux profile entries must be >= 0");

    Discretization grid;
    grid.h = config.gridSpacing.inMetres();
    grid.beta = tissue.perfusionCoefficient();
    grid.kh2 =
        tissue.conductivity.inWattsPerMetreKelvin() / (grid.h * grid.h);
    grid.omega = config.relaxation;
    grid.axi = config.geometry == BioHeatGeometry::Axisymmetric;
    grid.rows = static_cast<std::size_t>(config.domainDepth.inMetres() /
                                         grid.h) +
                1;
    grid.cols = static_cast<std::size_t>(config.domainWidth.inMetres() /
                                         grid.h) +
                1;

    // Contact half-extent: disc radius for axisymmetric, half the
    // square side for the planar strip cross-section.
    const double area = implant_area.inSquareMetres();
    grid.extent = grid.axi ? std::sqrt(area / std::numbers::pi)
                           : 0.5 * std::sqrt(area);
    MINDFUL_ASSERT(grid.extent < config.domainWidth.inMetres() * 0.75,
                   "implant wider than the simulated tissue domain; "
                   "increase BioHeatConfig::domainWidth");

    // Per-column surface flux [W/m^2]. Columns within the footprint
    // get the segment flux dictated by the (normalized) profile.
    grid.flux.assign(grid.cols, 0.0);
    const double seg_width =
        grid.extent / static_cast<double>(profile.size());

    // Normalize so that sum(flux_i * contact_area_i) == total.
    // Contact area of segment i: annulus (axisymmetric) or strip
    // pair (planar, both sides of the symmetry plane).
    double weighted = 0.0;
    std::vector<double> seg_area(profile.size(), 0.0);
    for (std::size_t s = 0; s < profile.size(); ++s) {
        double r0 = seg_width * static_cast<double>(s);
        double r1 = r0 + seg_width;
        seg_area[s] = grid.axi ? std::numbers::pi * (r1 * r1 - r0 * r0)
                               : 2.0 * (r1 - r0) * std::sqrt(area);
        weighted += profile[s] * seg_area[s];
    }
    MINDFUL_ASSERT(weighted > 0.0,
                   "flux profile must have positive total weight");
    const double scale = total.inWatts() / weighted;
    for (std::size_t j = 0; j < grid.cols; ++j) {
        double r = static_cast<double>(j) * grid.h;
        if (r > grid.extent)
            break;
        auto s = std::min<std::size_t>(
            static_cast<std::size_t>(r / seg_width), profile.size() - 1);
        grid.flux[j] = profile[s] * scale;
    }
    return grid;
}

/** Fold the converged field into the result summary. */
BioHeatResult
summarize(const Discretization &grid, std::vector<double> temp,
          std::size_t iterations)
{
    BioHeatResult result;
    result.iterations = iterations;
    result.fieldRows = grid.rows;
    result.fieldCols = grid.cols;

    double peak = 0.0;
    for (double v : temp)
        peak = std::max(peak, v);
    result.peakRise = TemperatureDelta::kelvin(peak);

    // Area-weighted mean over the contact footprint (top row).
    double weight_sum = 0.0;
    double weighted_temp = 0.0;
    for (std::size_t j = 0; j < grid.cols; ++j) {
        double r = static_cast<double>(j) * grid.h;
        if (r > grid.extent)
            break;
        double w = grid.axi ? std::max(r, grid.h / 4.0) : 1.0;
        weight_sum += w;
        weighted_temp += w * temp[j];
    }
    result.meanContactRise = TemperatureDelta::kelvin(
        weight_sum > 0.0 ? weighted_temp / weight_sum : 0.0);

    result.field = std::move(temp);
    return result;
}

void
recordSolveMetrics(std::size_t sweeps, double residual)
{
    auto &registry = obs::MetricRegistry::global();
    registry.counter("thermal.sor.solves").bump(1);
    registry.counter("thermal.sor.sweeps").bump(sweeps);
    registry.gauge("thermal.sor.residual").set(residual);
    registry.histogram("thermal.sor.sweeps_per_solve")
        .observe(static_cast<double>(sweeps));
}

} // namespace

BioHeatResult
BioHeatSolver::solve(Power total, Area implant_area) const
{
    return solveProfile(total, implant_area, {1.0});
}

BioHeatResult
BioHeatSolver::solveProfile(Power total, Area implant_area,
                            const std::vector<double> &profile) const
{
    auto grid = discretize(_tissue, _config, total, implant_area, profile);

    MINDFUL_TRACE_SPAN(span, "thermal", "sor.solve");
    span.arg("rows", static_cast<std::uint64_t>(grid.rows))
        .arg("cols", static_cast<std::uint64_t>(grid.cols));

    const std::size_t rows = grid.rows;
    const std::size_t cols = grid.cols;
    const double h = grid.h;
    const double kh2 = grid.kh2;
    const double beta = grid.beta;
    const double omega = grid.omega;
    const bool axi = grid.axi;
    const std::vector<double> &flux = grid.flux;

    std::vector<double> temp(rows * cols, 0.0);
    auto at = [&](std::size_t i, std::size_t j) -> double & {
        return temp[i * cols + j];
    };

    std::size_t iter = 0;
    double max_update = 0.0;
    bool converged = false;
    for (; iter < _config.maxIterations && !converged; ++iter) {
        max_update = 0.0;
        double peak = 0.0;
        // Interior + top boundary sweep; bottom row and outermost
        // column stay pinned at dT = 0 (far-field Dirichlet).
        for (std::size_t i = 0; i + 1 < rows; ++i) {
            for (std::size_t j = 0; j + 1 < cols; ++j) {
                double ce, cw, cp;
                double east = at(i, j + 1);
                double west;
                if (j == 0) {
                    if (axi) {
                        // Axis of symmetry: radial Laplacian becomes
                        // 2 d2T/dr2 by L'Hopital.
                        ce = 4.0;
                        cw = 0.0;
                        west = 0.0;
                        cp = 6.0;
                    } else {
                        // Planar symmetry plane: mirror the east node.
                        ce = 2.0;
                        cw = 0.0;
                        west = 0.0;
                        cp = 4.0;
                    }
                } else if (axi) {
                    double rj = static_cast<double>(j);
                    ce = 1.0 + 0.5 / rj;
                    cw = 1.0 - 0.5 / rj;
                    west = at(i, j - 1);
                    cp = 4.0;
                } else {
                    ce = 1.0;
                    cw = 1.0;
                    west = at(i, j - 1);
                    cp = 4.0;
                }

                double numer = kh2 * (ce * east + cw * west);
                if (i == 0) {
                    // Top surface: ghost node folds the surface flux
                    // into the south neighbour plus a source term
                    // (adiabatic where flux[j] == 0).
                    numer += kh2 * 2.0 * at(i + 1, j);
                    numer += 2.0 * flux[j] / h;
                } else {
                    numer += kh2 * (at(i - 1, j) + at(i + 1, j));
                }

                double updated = numer / (kh2 * cp + beta);
                double &cell = at(i, j);
                double next = cell + omega * (updated - cell);
                max_update = std::max(max_update, std::abs(next - cell));
                peak = std::max(peak, next);
                cell = next;
            }
        }
        converged = max_update <= _config.tolerance * peak;
    }
    if (!converged) {
        MINDFUL_PANIC("bio-heat SOR failed to converge: residual ",
                      max_update, " after ", iter, " iterations");
    }

    recordSolveMetrics(iter, max_update);
    return summarize(grid, std::move(temp), iter);
}

} // namespace mindful::thermal
