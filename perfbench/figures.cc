/**
 * @file
 * Workload `figures`: regenerate all 19 `export_figures` tables as CSV
 * in memory, set after set, and compare each with the
 * committed CSVs under data/ byte for byte.
 *
 * Layers: the analytic core models, the dnn builders and MAC census,
 * the accel lower bound and synthesis model (inside the table
 * builders), and Table::printCsv. No forward pass, no memo cache.
 */

#include <algorithm>
#include <fstream>
#include <functional>
#include <sstream>

#include "base/logging.hh"
#include "base/random.hh"
#include "core/experiments.hh"
#include "workload.hh"

namespace perfbench {
namespace {

using namespace mindful;
namespace ex = mindful::core::experiments;

struct Figure
{
    std::string file;  //!< data/<file>.csv
    const char *layer; //!< span name
    std::function<Table()> build;
};

std::vector<Figure>
allFigures()
{
    using core::CommScalingStrategy;
    std::vector<Figure> figures = {
        {"table1", "figures.table1_ms", [] { return ex::table1(); }},
        {"fig4_scaled_1024", "figures.fig4_ms",
         [] { return ex::fig4Table(); }},
        {"fig5_naive", "figures.fig5_ms",
         [] { return ex::fig5Table(CommScalingStrategy::Naive); }},
        {"fig5_high_margin", "figures.fig5_ms",
         [] { return ex::fig5Table(CommScalingStrategy::HighMargin); }},
        {"fig6_naive", "figures.fig6_ms",
         [] { return ex::fig6Table(CommScalingStrategy::Naive); }},
        {"fig6_high_margin", "figures.fig6_ms",
         [] { return ex::fig6Table(CommScalingStrategy::HighMargin); }},
        {"fig7_qam_efficiency", "figures.fig7_ms",
         [] { return ex::fig7Table(); }},
        {"fig9_accelerator", "figures.fig9_ms",
         [] { return ex::fig9Table(); }},
        {"fig10_mlp", "figures.fig10_mlp_ms",
         [] { return ex::fig10Table(ex::SpeechModel::Mlp); }},
        {"fig10_dn_cnn", "figures.fig10_dncnn_ms",
         [] { return ex::fig10Table(ex::SpeechModel::DnCnn); }},
        {"fig11_partitioning", "figures.fig11_ms",
         [] { return ex::fig11Table(); }},
    };
    for (int soc = 1; soc <= 8; ++soc)
        figures.push_back({"fig12_soc" + std::to_string(soc),
                           "figures.fig12_ms",
                           [soc] { return ex::fig12Table(soc); }});
    return figures;
}

const char *const kLayers[] = {
    "figures.table1_ms",      "figures.fig4_ms",    "figures.fig5_ms",
    "figures.fig6_ms",        "figures.fig7_ms",    "figures.fig9_ms",
    "figures.fig10_mlp_ms",   "figures.fig10_dncnn_ms",
    "figures.fig11_ms",       "figures.fig12_ms",
    "figures.csv_render_ms",
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        MINDFUL_FATAL("perfbench: cannot read ", path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

class Figures : public Workload
{
  public:
    explicit Figures(const Context &context)
        : _seed(context.seed), _figures(allFigures())
    {
        // Golden CSVs: loaded before set-up is timed (excluded).
        for (const Figure &figure : _figures)
            _golden.push_back(readFile(context.repoRoot + "/data/" +
                                       figure.file + ".csv"));
    }

    void
    setup() override
    {
        // Lazy set-up a user pays once: the first, cold set.
        PassStats warm;
        runSet(0, nullptr, warm);
    }

    PassStats
    run(double seconds, std::size_t min_ops, Tracer *tracer) override
    {
        return runFor(seconds, min_ops, tracer,
                      [&](std::uint32_t i, PassStats &stats, Tracer *traced) {
                          runSet(i + 1, traced, stats);
                      });
    }

    void verify(PassStats &) override {}

    void
    layerMetrics(const Tracer &tracer, Metrics &out) override
    {
        for (const char *layer : kLayers)
            out[layer] = {median(tracer.perOpMs(layer)), "ms"};
    }

  private:
    /** One set: every table, in a seed-shuffled order, checked. */
    void
    runSet(std::uint32_t set, Tracer *tracer, PassStats &stats)
    {
        std::vector<std::size_t> order(_figures.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        Rng rng = Rng(_seed).fork(set);
        std::shuffle(order.begin(), order.end(), rng.engine());

        std::vector<std::string> csv(_figures.size());
        const OpClock clock;
        {
            Scope root(tracer, "figures.set", set);
            for (std::size_t i : order) {
                Table table;
                {
                    Scope span(tracer, _figures[i].layer, set, root.index());
                    table = _figures[i].build();
                }
                Scope span(tracer, "figures.csv_render_ms", set,
                           root.index());
                std::ostringstream os;
                table.printCsv(os);
                csv[i] = os.str();
            }
        }
        clock.record(stats);

        ++stats.attempted;
        for (std::size_t i = 0; i < csv.size(); ++i) {
            if (csv[i] != _golden[i]) {
                MINDFUL_WARN_ONCE("perfbench: ", _figures[i].file,
                                  ".csv differs from data/");
                ++stats.failed;
                break;
            }
        }
    }

    std::uint64_t _seed;
    std::vector<Figure> _figures;
    std::vector<std::string> _golden;
};

} // namespace

std::unique_ptr<Workload>
makeFigures(const Context &context)
{
    return std::make_unique<Figures>(context);
}

} // namespace perfbench
