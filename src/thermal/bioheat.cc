#include "thermal/bioheat.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>

#include "base/logging.hh"
#include "exec/parallel.hh"
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

/** Sweeps between convergence-residual evaluations. */
constexpr std::size_t kResidualSweepStride = 8;

/** Minimum updated-cell count before a sweep shards over the pool. */
constexpr std::size_t kParallelCellThreshold = 16384;

/** Discretized problem shared by the red-black and legacy sweeps. */
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
recordSolveMetrics(const char *prefix, std::size_t sweeps,
                   double residual)
{
    auto &registry = obs::MetricRegistry::global();
    if (!registry.enabled())
        return;
    const std::string base(prefix);
    registry.counter(base + ".solves").bump(1);
    registry.counter(base + ".sweeps").bump(sweeps);
    registry.gauge(base + ".residual").set(residual);
    registry.histogram(base + ".sweeps_per_solve")
        .observe(static_cast<double>(sweeps));
}

/**
 * Red-black SOR sweep engine over one temperature field.
 *
 * Construction hoists every branch the legacy sweep evaluated per
 * cell into per-column tables: east/west stencil coefficients (the
 * j == 0 symmetry column and the axisymmetric 1/r terms), reciprocal
 * denominators (no division in the inner loop), and the top-surface
 * flux source term. The i == 0 ghost-node row runs as its own kernel.
 *
 * A "red" (parity 0) cell's four neighbours are all "black" (parity
 * 1) and vice versa, so all cells of one color update independently —
 * rows shard over the pool and the result cannot depend on execution
 * order or thread count.
 */
class RedBlackSweep
{
  public:
    RedBlackSweep(const Discretization &grid, std::vector<double> &temp)
        : _grid(grid), _temp(temp), _ce(grid.cols, 1.0),
          _cw(grid.cols, 1.0), _invDenom(grid.cols, 0.0),
          _fluxTerm(grid.cols, 0.0)
    {
        for (std::size_t j = 0; j + 1 < grid.cols; ++j) {
            double cp = 4.0;
            if (j == 0) {
                _cw[j] = 0.0;
                if (grid.axi) {
                    // Axis of symmetry: radial Laplacian becomes
                    // 2 d2T/dr2 by L'Hopital.
                    _ce[j] = 4.0;
                    cp = 6.0;
                } else {
                    // Planar symmetry plane: mirror the east node.
                    _ce[j] = 2.0;
                }
            } else if (grid.axi) {
                double rj = static_cast<double>(j);
                _ce[j] = 1.0 + 0.5 / rj;
                _cw[j] = 1.0 - 0.5 / rj;
            }
            _invDenom[j] = 1.0 / (grid.kh2 * cp + grid.beta);
            // Top surface: ghost node folds the surface flux into the
            // south neighbour plus this source term (adiabatic where
            // flux[j] == 0).
            _fluxTerm[j] = 2.0 * grid.flux[j] / grid.h;
        }

        const std::size_t sweep_rows = grid.rows - 1;
        const std::size_t cells = sweep_rows * (grid.cols - 1);
        _shards = cells >= kParallelCellThreshold
                      ? std::min<std::size_t>(exec::kDefaultShards,
                                              sweep_rows)
                      : 1;
    }

    std::size_t shards() const { return _shards; }

    /**
     * One full sweep (red color then black). With Measure, returns
     * {max |relaxed update|, max updated value}; both reduce by max,
     * so the parallel reduction is exact and order-free.
     */
    template <bool Measure>
    std::array<double, 2>
    sweep()
    {
        auto red = colorSweep<Measure>(0);
        auto black = colorSweep<Measure>(1);
        return {std::max(red[0], black[0]), std::max(red[1], black[1])};
    }

  private:
    template <bool Measure>
    std::array<double, 2>
    colorSweep(int parity)
    {
        const std::size_t sweep_rows = _grid.rows - 1;
        if (_shards <= 1) {
            std::array<double, 2> acc{0.0, 0.0};
            for (std::size_t i = 0; i < sweep_rows; ++i)
                updateRow<Measure>(i, parity, acc);
            return acc;
        }
        // Shard instrumentation (resolved once; see
        // docs/observability.md). site() is idempotent, so the two
        // Measure instantiations share one interned id.
        static const obs::TraceSite shard_site =
            obs::TraceCollector::global().site("thermal", "sor.shard");
        static const obs::CounterHandle shard_rows =
            obs::MetricRegistry::global().counter(
                "thermal.sor.shard_rows");
        return exec::parallelReduce(
            _shards, std::array<double, 2>{0.0, 0.0},
            [&](std::size_t shard) {
                obs::HotSpan shard_span(shard_site);
                auto range =
                    exec::shardRange(sweep_rows, _shards, shard);
                shard_span.setArg(range.end - range.begin);
                std::array<double, 2> acc{0.0, 0.0};
                for (std::uint64_t i = range.begin; i < range.end; ++i)
                    updateRow<Measure>(static_cast<std::size_t>(i),
                                       parity, acc);
                shard_rows.bump(range.end - range.begin);
                return acc;
            },
            [](std::array<double, 2> a, std::array<double, 2> b) {
                return std::array<double, 2>{std::max(a[0], b[0]),
                                             std::max(a[1], b[1])};
            },
            "thermal.sor.sweep");
    }

    /** Update this row's cells of color @p parity ((i + j) % 2). */
    template <bool Measure>
    void
    updateRow(std::size_t i, int parity, std::array<double, 2> &acc)
    {
        double *row = _temp.data() + i * _grid.cols;
        const double *south = row + _grid.cols;
        const double omega = _grid.omega;
        const double kh2 = _grid.kh2;
        const std::size_t last = _grid.cols - 1; // pinned far column

        auto step = [&](std::size_t j, double numer) {
            double &cell = row[j];
            const double next =
                cell + omega * (numer * _invDenom[j] - cell);
            if constexpr (Measure) {
                acc[0] = std::max(acc[0], std::abs(next - cell));
                acc[1] = std::max(acc[1], next);
            }
            cell = next;
        };

        std::size_t j =
            (static_cast<std::size_t>(parity) + i) % 2 == 0 ? 0 : 1;
        if (i == 0) {
            if (j == 0) {
                step(0, kh2 * (_ce[0] * row[1] + 2.0 * south[0]) +
                            _fluxTerm[0]);
                j = 2;
            }
            for (; j < last; j += 2)
                step(j, kh2 * (_ce[j] * row[j + 1] +
                               _cw[j] * row[j - 1] + 2.0 * south[j]) +
                            _fluxTerm[j]);
        } else {
            const double *north = row - _grid.cols;
            if (j == 0) {
                step(0, kh2 * (_ce[0] * row[1] + north[0] + south[0]));
                j = 2;
            }
            for (; j < last; j += 2)
                step(j, kh2 * (_ce[j] * row[j + 1] +
                               _cw[j] * row[j - 1] + north[j] +
                               south[j]));
        }
    }

    const Discretization &_grid;
    std::vector<double> &_temp;
    std::vector<double> _ce;
    std::vector<double> _cw;
    std::vector<double> _invDenom;
    std::vector<double> _fluxTerm;
    std::size_t _shards = 1;
};

} // namespace

BioHeatResult
BioHeatSolver::solve(Power total, Area implant_area) const
{
    return solveProfile(total, implant_area, {1.0});
}

BioHeatResult
BioHeatSolver::solveReference(Power total, Area implant_area) const
{
    return solveProfileReference(total, implant_area, {1.0});
}

BioHeatResult
BioHeatSolver::solveProfile(Power total, Area implant_area,
                            const std::vector<double> &profile) const
{
    auto grid = discretize(_tissue, _config, total, implant_area, profile);

    MINDFUL_TRACE_SPAN(span, "thermal", "sor.solve");
    span.arg("rows", static_cast<std::uint64_t>(grid.rows))
        .arg("cols", static_cast<std::uint64_t>(grid.cols));

    std::vector<double> temp(grid.rows * grid.cols, 0.0);
    RedBlackSweep sweep(grid, temp);

    std::size_t iter = 0;
    double residual = 0.0;
    bool converged = false;
    while (iter < _config.maxIterations && !converged) {
        // The residual costs an abs + two max per cell plus a
        // reduction; evaluating it every kResidualSweepStride-th
        // sweep keeps the steady-state kernels pure arithmetic. The
        // (at most) 7 extra sweeps past convergence only tighten the
        // answer.
        const bool measure =
            (iter + 1) % kResidualSweepStride == 0 ||
            iter + 1 == _config.maxIterations;
        if (measure) {
            auto [res, peak] = sweep.sweep<true>();
            residual = res;
            converged = res <= _config.tolerance * peak;
        } else {
            sweep.sweep<false>();
        }
        ++iter;
    }
    if (!converged) {
        MINDFUL_PANIC("bio-heat SOR failed to converge: residual ",
                      residual, " after ", iter, " iterations");
    }

    recordSolveMetrics("thermal.sor", iter, residual);
    return summarize(grid, std::move(temp), iter);
}

BioHeatResult
BioHeatSolver::solveProfileReference(
    Power total, Area implant_area,
    const std::vector<double> &profile) const
{
    auto grid = discretize(_tissue, _config, total, implant_area, profile);

    MINDFUL_TRACE_SPAN(span, "thermal", "sor.solve_reference");
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

    recordSolveMetrics("thermal.sor.reference", iter, max_update);
    return summarize(grid, std::move(temp), iter);
}

} // namespace mindful::thermal
