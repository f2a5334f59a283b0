#include "obs/metrics.hh"

#include <cmath>
#include <ostream>
#include <sstream>
#include <vector>

#include "base/logging.hh"
#include "obs/json.hh"
#include "obs/manifest.hh"

namespace mindful::obs {

MetricRegistry &
MetricRegistry::global()
{
    static MetricRegistry registry;
    return registry;
}

bool
MetricRegistry::Entry::live() const
{
    // A cleared row reappears once it records again.
    return resolved || (counter && counter->total() > 0) ||
           (gauge && gauge->isSet()) ||
           (histogram &&
            histogram->total.load(std::memory_order_relaxed) > 0);
}

MetricRegistry::Entry &
MetricRegistry::resolveLocked(std::string_view name, const char *kind)
{
    auto it = _entries.find(name);
    if (it == _entries.end())
        it = _entries.emplace(std::string(name), Entry{}).first;
    Entry &entry = it->second;
    const char *existing = entry.counter     ? "counter"
                           : entry.gauge     ? "gauge"
                           : entry.histogram ? "histogram"
                                             : kind;
    MINDFUL_ASSERT(std::string_view(existing) == kind, "metric '", name,
                   "' already registered with a different kind");
    entry.resolved = true;
    return entry;
}

CounterHandle
MetricRegistry::counter(std::string_view name)
{
    LockGuard lock(_mutex);
    Entry &entry = resolveLocked(name, "counter");
    if (!entry.counter)
        entry.counter = std::make_unique<CounterCells>();
    return CounterHandle(entry.counter.get());
}

Gauge &
MetricRegistry::gauge(std::string_view name)
{
    LockGuard lock(_mutex);
    Entry &entry = resolveLocked(name, "gauge");
    if (!entry.gauge)
        entry.gauge = std::make_unique<Gauge>();
    return *entry.gauge;
}

HistogramHandle
MetricRegistry::histogram(std::string_view name, HistogramOptions options)
{
    LockGuard lock(_mutex);
    Entry &entry = resolveLocked(name, "histogram");
    if (!entry.histogram)
        entry.histogram = std::make_unique<HistogramCells>(options);
    return HistogramHandle(entry.histogram.get());
}

bool
MetricRegistry::contains(std::string_view name) const
{
    LockGuard lock(_mutex);
    auto it = _entries.find(name);
    return it != _entries.end() && it->second.live();
}

std::size_t
MetricRegistry::size() const
{
    LockGuard lock(_mutex);
    std::size_t live = 0;
    for (const auto &[name, entry] : _entries)
        live += entry.live() ? 1 : 0;
    return live;
}

void
MetricRegistry::clear()
{
    LockGuard lock(_mutex);
    for (auto &[name, entry] : _entries) {
        entry.resolved = false;
        if (entry.counter) {
            for (HotCell &stripe : entry.counter->stripes)
                stripe.value.store(0, std::memory_order_relaxed);
        }
        if (entry.gauge)
            entry.gauge->reset();
        if (entry.histogram)
            entry.histogram->reset();
    }
}

std::vector<MetricSample>
MetricRegistry::snapshot() const
{
    // Values are exact once producers have quiesced (e.g. after
    // parallelFor returns); std::map iteration is already name-sorted.
    LockGuard lock(_mutex);
    std::vector<MetricSample> samples;
    for (const auto &[name, entry] : _entries) {
        if (!entry.live())
            continue;
        MetricSample sample;
        sample.name = name;
        if (entry.counter) {
            sample.type = "counter";
            const std::uint64_t total = entry.counter->total();
            sample.value = static_cast<double>(total);
            sample.count = static_cast<std::size_t>(total);
        } else if (entry.gauge) {
            sample.type = "gauge";
            sample.value = entry.gauge->value();
            sample.count = entry.gauge->isSet() ? 1 : 0;
        } else if (entry.histogram) {
            const HistogramCells &h = *entry.histogram;
            sample.type = "histogram";
            const std::uint64_t total =
                h.total.load(std::memory_order_relaxed);
            sample.count = static_cast<std::size_t>(total);
            if (total > 0) {
                sample.value = h.sum.load(std::memory_order_relaxed) /
                               static_cast<double>(total);
                sample.min = h.minSeen.load(std::memory_order_relaxed);
                sample.max = h.maxSeen.load(std::memory_order_relaxed);
            }
            sample.p50 = h.percentile(50.0);
            sample.p95 = h.percentile(95.0);
            sample.p99 = h.percentile(99.0);
        }
        samples.push_back(std::move(sample));
    }
    return samples;
}

Table
MetricRegistry::snapshotTable() const
{
    Table table("metrics");
    table.setHeader({"name", "type", "count", "value", "min", "p50",
                     "p95", "p99", "max"});
    for (const auto &s : snapshot()) {
        table.addRow({
            s.name,
            s.type,
            std::to_string(s.count),
            Table::formatNumber(s.value, 6),
            Table::formatNumber(s.min, 6),
            Table::formatNumber(s.p50, 6),
            Table::formatNumber(s.p95, 6),
            Table::formatNumber(s.p99, 6),
            Table::formatNumber(s.max, 6),
        });
    }
    return table;
}

namespace {

void
writeJsonNumber(std::ostream &os, double v)
{
    // JSON has no Infinity/NaN literals; clamp to null.
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    std::ostringstream tmp;
    tmp.precision(15);
    tmp << v;
    os << tmp.str();
}

} // namespace

void
MetricRegistry::writeJson(std::ostream &os) const
{
    os << "{";
    // Provenance block first; the leading underscore keeps it clear
    // of the metric namespace (names start with a subsystem letter).
    os << "\n  \"_manifest\": ";
    RunManifest::current().writeJsonObject(os);
    for (const auto &s : snapshot()) {
        os << ",";
        os << "\n  ";
        writeJsonEscaped(os, s.name);
        os << ": {\"type\": ";
        writeJsonEscaped(os, s.type);
        os << ", \"count\": " << s.count << ", \"value\": ";
        writeJsonNumber(os, s.value);
        if (s.type == "histogram") {
            os << ", \"min\": ";
            writeJsonNumber(os, s.min);
            os << ", \"p50\": ";
            writeJsonNumber(os, s.p50);
            os << ", \"p95\": ";
            writeJsonNumber(os, s.p95);
            os << ", \"p99\": ";
            writeJsonNumber(os, s.p99);
            os << ", \"max\": ";
            writeJsonNumber(os, s.max);
        }
        os << "}";
    }
    os << "\n}\n";
}

} // namespace mindful::obs
