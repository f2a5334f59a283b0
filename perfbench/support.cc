#include "support.hh"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>

namespace perfbench {

double
nowS()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch)
        .count();
}

double
cpuS()
{
    timespec now{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
    return static_cast<double>(now.tv_sec) +
           static_cast<double>(now.tv_nsec) * 1e-9;
}

std::uint64_t
fnvMix(std::uint64_t hash, std::uint64_t value)
{
    for (int byte = 0; byte < 8; ++byte) {
        hash ^= (value >> (byte * 8)) & 0xffu;
        hash *= 1099511628211ull;
    }
    return hash;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
peakRssMb()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof(usage));
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

Tracer::Tracer(std::size_t capacity) { _spans.reserve(capacity); }

std::vector<double>
Tracer::selfTimes() const
{
    std::vector<double> self(_spans.size());
    for (std::size_t i = 0; i < _spans.size(); ++i)
        self[i] = _spans[i].end - _spans[i].start;
    for (const Span &span : _spans) {
        if (span.parent >= 0)
            self[static_cast<std::size_t>(span.parent)] -=
                span.end - span.start;
    }
    return self;
}

std::vector<double>
Tracer::perOpMs(const char *name) const
{
    std::vector<double> totals;
    std::uint32_t current = 0;
    bool open = false;
    // Spans of one op are contiguous: ops run one after another.
    for (const Span &span : _spans) {
        if (std::strcmp(span.name, name) != 0)
            continue;
        const double ms = (span.end - span.start) * 1e3;
        if (open && span.op == current) {
            totals.back() += ms;
        } else {
            totals.push_back(ms);
            current = span.op;
            open = true;
        }
    }
    return totals;
}

void
Tracer::writeCsv(const std::string &path) const
{
    std::ofstream os(path);
    os << "id,parent,op,name,start_us,end_us\n";
    char line[160];
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &span = _spans[i];
        std::snprintf(line, sizeof(line), "%zu,%d,%u,%s,%.3f,%.3f\n", i,
                      span.parent, span.op, span.name, span.start * 1e6,
                      span.end * 1e6);
        os << line;
    }
}

Summary
summarize(const std::vector<double> &op_ms)
{
    double busy = 0.0;
    for (double ms : op_ms)
        busy += ms;
    Summary summary;
    summary.opsPerSecond = busy > 0.0 ? 1e3 * op_ms.size() / busy : 0.0;
    summary.p50Ms = quantile(op_ms, 0.5);
    summary.p90Ms = quantile(op_ms, 0.9);
    return summary;
}

double
traceOverhead(const PassStats &stats)
{
    double sum[2] = {0.0, 0.0};
    std::size_t count[2] = {0, 0};
    for (std::size_t i = 0; i < stats.opMs.size(); ++i) {
        sum[stats.traced[i]] += stats.opCpuMs[i];
        ++count[stats.traced[i]];
    }
    if (count[0] == 0 || count[1] == 0 || sum[0] <= 0.0)
        return 0.0;
    return (sum[1] / count[1]) / (sum[0] / count[0]);
}

double
coverage(const Tracer &tracer)
{
    const std::vector<double> self = tracer.selfTimes();
    double stages = 0.0;
    double roots = 0.0;
    for (std::size_t i = 0; i < self.size(); ++i) {
        const Span &span = tracer.spans()[i];
        if (span.parent < 0)
            roots += span.end - span.start;
        else
            stages += self[i];
    }
    return roots > 0.0 ? stages / roots : 0.0;
}

} // namespace perfbench
