/**
 * @file
 * Workload `serve_zipf`: one closed-loop caller sends batches of 256
 * DesignQuery requests to QueryEngine::evaluateBatch, the next batch
 * only after the previous one returned.
 *
 * Requests are drawn Zipf(s = 1) over a knob grid of 129,024 distinct
 * canonical requests, about twice MemoCache::kDefaultCapacity: 8 SoCs
 * x 6 workload classes x channels 128..16384 step 128 x node x
 * partitioned x 2 QAM efficiencies x 7 uplink caps, after
 * canonicalize() folds the knobs a class ignores. The seed picks which
 * requests are popular and how the ignored knobs are spelled. The
 * engine starts empty, so the run covers first sightings (misses that
 * publish), the popular head (hits), and the tail that no longer fits
 * in the cache (misses that are dropped).
 */

#include <algorithm>
#include <array>
#include <cmath>

#include "base/logging.hh"
#include "base/random.hh"
#include "exec/thread_pool.hh"
#include "serve/query_engine.hh"
#include "workload.hh"

namespace perfbench {
namespace {

using namespace mindful;
using serve::DesignQuery;
using serve::QueryResult;
using serve::WorkloadClass;

constexpr std::size_t kBatch = 256;

/** Channels stay <= 16384: see NOTES.md on the QAM abort. */
constexpr std::uint64_t kMaxChannels = 16384;

constexpr std::array<WorkloadClass, 6> kClasses = {
    WorkloadClass::RawStreaming, WorkloadClass::QamStreaming,
    WorkloadClass::EventStreaming, WorkloadClass::DnnMlp,
    WorkloadClass::DnnCnn,       WorkloadClass::Kalman,
};

const char *const kMissLayers[] = {
    "serve.miss_us.raw_streaming", "serve.miss_us.qam_streaming",
    "serve.miss_us.event_streaming", "serve.miss_us.dnn_mlp",
    "serve.miss_us.dnn_cnn",         "serve.miss_us.kalman",
};

constexpr double kQamEfficiencies[] = {0.25, 0.5};
constexpr double kUplinkCapsMbps[] = {0.0, 10.0, 25.0, 50.0,
                                      100.0, 200.0, 400.0};

/** Counter-based draw: a pure function of (stream, index). */
std::uint64_t
draw(std::uint64_t stream, std::uint64_t index)
{
    return Rng::splitmix64(stream ^ Rng::splitmix64(index));
}

/** Every distinct canonical request of the knob grid, in grid order. */
std::vector<DesignQuery>
canonicalGrid()
{
    std::vector<DesignQuery> grid;
    for (int soc = 1; soc <= 8; ++soc)
        for (WorkloadClass workload : kClasses)
            for (std::uint64_t ch = 128; ch <= kMaxChannels; ch += 128)
                for (int strategy = 0; strategy < 2; ++strategy)
                    for (int node = 0; node < 2; ++node)
                        for (int part = 0; part < 2; ++part)
                            for (double eff : kQamEfficiencies)
                                for (double cap : kUplinkCapsMbps) {
                                    DesignQuery query;
                                    query.socId = soc;
                                    query.workload = workload;
                                    query.channels = ch;
                                    query.commStrategy =
                                        strategy
                                            ? core::CommScalingStrategy::Naive
                                            : core::CommScalingStrategy::
                                                  HighMargin;
                                    query.node =
                                        node ? serve::ProcessNode::Node12nm
                                             : serve::ProcessNode::Node45nm;
                                    query.partitioned = part != 0;
                                    query.qamEfficiency = eff;
                                    query.uplinkCapMbps = cap;
                                    const DesignQuery canonical =
                                        serve::canonicalize(query);
                                    // Ignored knobs repeat a canonical
                                    // form; keep its first spelling.
                                    if (canonical.commStrategy ==
                                            query.commStrategy &&
                                        canonical.node == query.node &&
                                        canonical.partitioned ==
                                            query.partitioned &&
                                        canonical.qamEfficiency ==
                                            query.qamEfficiency)
                                        grid.push_back(canonical);
                                }
    return grid;
}

/** Walker alias table for Zipf(1) over ranks 0..n-1. */
struct ZipfAlias
{
    std::vector<double> prob;
    std::vector<std::uint32_t> alias;

    explicit ZipfAlias(std::size_t n) : prob(n), alias(n)
    {
        double norm = 0.0;
        for (std::size_t r = 0; r < n; ++r)
            norm += 1.0 / static_cast<double>(r + 1);
        std::vector<double> scaled(n);
        std::vector<std::uint32_t> small, large;
        for (std::size_t r = 0; r < n; ++r) {
            scaled[r] = static_cast<double>(n) /
                        (static_cast<double>(r + 1) * norm);
            (scaled[r] < 1.0 ? small : large)
                .push_back(static_cast<std::uint32_t>(r));
        }
        while (!small.empty() && !large.empty()) {
            const std::uint32_t s = small.back();
            small.pop_back();
            const std::uint32_t l = large.back();
            prob[s] = scaled[s];
            alias[s] = l;
            scaled[l] -= 1.0 - scaled[s];
            if (scaled[l] < 1.0) {
                large.pop_back();
                small.push_back(l);
            }
        }
        for (std::uint32_t r : large)
            prob[r] = 1.0;
        for (std::uint32_t r : small)
            prob[r] = 1.0;
    }

    std::size_t
    sample(std::uint64_t bits) const
    {
        const std::size_t slot = static_cast<std::size_t>(
            ((bits >> 32) * static_cast<std::uint64_t>(prob.size())) >> 32);
        const double coin =
            static_cast<double>(bits & 0xffffffffu) * 0x1p-32;
        return coin < prob[slot] ? slot : alias[slot];
    }
};

class Serve : public Workload
{
  public:
    explicit Serve(const Context &context)
        : _stream(Rng::splitmix64(context.seed ^ 0x7365727665ull))
    {
    }

    void
    setup() override
    {
        _grid = canonicalGrid();
        _zipf = std::make_unique<ZipfAlias>(_grid.size());
        // Rank -> grid entry: the seed decides which requests are hot.
        _byRank.resize(_grid.size());
        for (std::size_t i = 0; i < _byRank.size(); ++i)
            _byRank[i] = static_cast<std::uint32_t>(i);
        Rng rng(_stream);
        std::shuffle(_byRank.begin(), _byRank.end(), rng.engine());
        _engine = std::make_unique<serve::QueryEngine>();
        _batch.resize(kBatch);
        _picks.resize(kBatch);
    }

    PassStats
    run(double seconds, std::size_t min_ops, Tracer *tracer) override
    {
        if (_engineUsed)
            _engine = std::make_unique<serve::QueryEngine>();
        _engineUsed = true;
        const std::uint64_t hits0 = _engine->cacheHitsTotal();
        const std::uint64_t misses0 = _engine->cacheMissesTotal();
        const std::uint64_t drops0 = _engine->cacheDropsTotal();
        const std::uint64_t queries0 = _engine->queriesTotal();

        _batchDigests.clear();
        _canonNs.clear();
        _probeNs.clear();
        PassStats stats = runFor(seconds, min_ops, tracer,
                                 [&](std::uint32_t b, PassStats &stats,
                                     Tracer *traced) {
            fillBatch(b);
            if (traced && b % 16 == 1)
                samplePhases();
            const OpClock clock;
            std::vector<QueryResult> results;
            {
                Scope root(traced, "serve.batch", b);
                Scope call(traced, "serve.evaluateBatch", b, root.index());
                results = _engine->evaluateBatch(_batch);
            }
            clock.record(stats);

            std::uint64_t digest = kFnvOffset;
            for (const QueryResult &result : results) {
                ++stats.attempted;
                if (result.status != serve::QueryStatus::Ok)
                    ++stats.failed;
                digest = fnvMix(digest, serve::resultDigest(result));
            }
            _batchDigests.push_back(digest);
        });
        _hits = _engine->cacheHitsTotal() - hits0;
        _misses = _engine->cacheMissesTotal() - misses0;
        _drops = _engine->cacheDropsTotal() - drops0;
        _queries = _engine->queriesTotal() - queries0;
        return stats;
    }

    /**
     * Single-thread reference pass outside the measured part: replay
     * the same stream through QueryEngine::evaluate on one thread and
     * a cache large enough for every key; every batch digest must
     * match the one the measured run produced.
     */
    void
    verify(PassStats &stats) override
    {
        const unsigned threads = exec::ThreadPool::globalThreadCount();
        exec::ThreadPool::setGlobalThreadCount(1);
        serve::QueryEngine reference(std::size_t(1) << 18);
        // resultDigest per grid request, from the reference engine's
        // answer to the first spelling of it the stream sends.
        std::vector<std::uint64_t> digests(_grid.size(), 0);
        std::vector<std::uint8_t> known(_grid.size(), 0);
        std::uint64_t stream = kFnvOffset;
        std::uint64_t expected_stream = kFnvOffset;
        for (std::uint32_t b = 0; b < _batchDigests.size(); ++b) {
            fillBatch(b);
            std::uint64_t digest = kFnvOffset;
            for (std::size_t j = 0; j < kBatch; ++j) {
                const std::uint32_t pick = _picks[j];
                if (!known[pick]) {
                    digests[pick] = serve::resultDigest(
                        reference.evaluate(_batch[j]));
                    known[pick] = 1;
                }
                digest = fnvMix(digest, digests[pick]);
            }
            if (digest != _batchDigests[b]) {
                MINDFUL_WARN_ONCE("perfbench: serve batch ", b,
                                  " differs from the reference pass");
                stats.failed += kBatch;
            }
            stream = fnvMix(stream, _batchDigests[b]);
            expected_stream = fnvMix(expected_stream, digest);
        }
        exec::ThreadPool::setGlobalThreadCount(threads);
        stats.facts["stream_digest"] = std::to_string(stream);
        stats.facts["reference_stream_digest"] =
            std::to_string(expected_stream);
    }

    void
    layerMetrics(const Tracer &tracer, Metrics &out) override
    {
        std::vector<double> batch_ms = tracer.perOpMs("serve.batch");
        out["serve.batch_ms.p99"] = {quantile(batch_ms, 0.99), "ms"};
        out["serve.canon_key_ns"] = {median(_canonNs), "ns"};
        out["serve.probe_ns"] = {median(_probeNs), "ns"};
        out["serve.hit_ratio"] = {
            _queries ? static_cast<double>(_hits) /
                           static_cast<double>(_queries)
                     : 0.0,
            "ratio"};
        out["serve.misses"] = {static_cast<double>(_misses), "count"};
        out["serve.drops"] = {static_cast<double>(_drops), "count"};
        measureMisses(out);
    }

  private:
    /** Batch @p b of the request stream: Zipf rank, then a spelling. */
    void
    fillBatch(std::uint32_t b)
    {
        for (std::size_t j = 0; j < kBatch; ++j) {
            const std::uint64_t index = std::uint64_t(b) * kBatch + j;
            const std::uint64_t pick = draw(_stream, 2 * index);
            const std::uint64_t spell = draw(_stream, 2 * index + 1);
            _picks[j] = _byRank[_zipf->sample(pick)];
            DesignQuery query = _grid[_picks[j]];
            // Knobs the class ignores get arbitrary values; the
            // canonical form (and so the answer) stays the same.
            if (query.workload != WorkloadClass::RawStreaming && (spell & 1))
                query.commStrategy = core::CommScalingStrategy::Naive;
            if (query.workload != WorkloadClass::QamStreaming && (spell & 2))
                query.qamEfficiency = 0.5;
            if ((query.workload == WorkloadClass::RawStreaming ||
                 query.workload == WorkloadClass::QamStreaming) &&
                (spell & 4))
                query.node = serve::ProcessNode::Node12nm;
            if (query.workload == WorkloadClass::RawStreaming ||
                query.workload == WorkloadClass::QamStreaming ||
                query.workload == WorkloadClass::EventStreaming)
                query.partitioned = (spell & 8) != 0;
            if (query.channels == 1024 && (spell & 16))
                query.channels = 0; // the default spelling of 1024
            _batch[j] = query;
        }
    }

    /**
     * Per-query phase costs on the current batch, measured from
     * outside: canonicalize + queryKey, then the cache probe.
     */
    void
    samplePhases()
    {
        std::array<std::uint64_t, kBatch> keys;
        double start = nowS();
        for (std::size_t j = 0; j < kBatch; ++j)
            keys[j] = serve::queryKey(serve::canonicalize(_batch[j]));
        _canonNs.push_back((nowS() - start) * 1e9 / kBatch);
        std::size_t found = 0;
        start = nowS();
        for (std::size_t j = 0; j < kBatch; ++j)
            found += _engine->cache().probe(keys[j]) != nullptr;
        _probeNs.push_back((nowS() - start) * 1e9 / kBatch);
        _probeSink += found;
    }

    /** Uncached evaluate(canonical, key) per workload class [us]. */
    void
    measureMisses(Metrics &out)
    {
        serve::QueryEngine scratch;
        for (std::size_t c = 0; c < kClasses.size(); ++c) {
            std::vector<double> us;
            for (std::size_t i = 0; i < _grid.size() && us.size() < 48;
                 i += 97) {
                const DesignQuery &query = _grid[i];
                if (query.workload != kClasses[c])
                    continue;
                const std::uint64_t key = serve::queryKey(query);
                const double start = nowS();
                const QueryResult result = scratch.evaluate(query, key);
                us.push_back((nowS() - start) * 1e6);
                _probeSink += result.feasible;
            }
            out[kMissLayers[c]] = {median(us), "us"};
        }
    }

    std::uint64_t _stream;
    std::vector<DesignQuery> _grid;
    std::unique_ptr<ZipfAlias> _zipf;
    std::vector<std::uint32_t> _byRank;
    std::unique_ptr<serve::QueryEngine> _engine;
    bool _engineUsed = false;
    std::vector<DesignQuery> _batch;
    std::vector<std::uint32_t> _picks; //!< grid index of each _batch entry

    std::vector<std::uint64_t> _batchDigests;
    std::vector<double> _canonNs;
    std::vector<double> _probeNs;
    std::uint64_t _hits = 0, _misses = 0, _drops = 0, _queries = 0;
    std::uint64_t _probeSink = 0;
};

} // namespace

std::unique_ptr<Workload>
makeServe(const Context &context)
{
    return std::make_unique<Serve>(context);
}

} // namespace perfbench
