/**
 * @file
 * Host reference peak: a register-only multiply-then-add loop with the
 * op mix of the bit-exact GEMM kernels (separate mul and add, never a
 * fused FMA; this file builds with -ffp-contract=off), on the AVX2 tier
 * when the dispatcher uses it and on scalar floats otherwise.
 */

#include <thread>
#include <vector>

#include "base/cpu.hh"
#include "workload.hh"

#ifdef PERFBENCH_AVX2
#include <immintrin.h>
#endif

namespace perfbench {
namespace {

constexpr int kAccumulators = 10;
constexpr std::uint64_t kIterations = 20'000'000;

/** Returns floating-point ops performed; @p sink defeats elision. */
std::uint64_t
scalarLoop(float seed, float &sink)
{
    float acc[kAccumulators];
    for (int i = 0; i < kAccumulators; ++i)
        acc[i] = seed + static_cast<float>(i);
    const float mul = 0.999999f;
    const float add = 1e-6f;
    for (std::uint64_t it = 0; it < kIterations; ++it)
        for (int i = 0; i < kAccumulators; ++i)
            acc[i] = acc[i] * mul + add;
    float total = 0.0f;
    for (float a : acc)
        total += a;
    sink = total;
    return kIterations * kAccumulators * 2;
}

#ifdef PERFBENCH_AVX2
std::uint64_t
avx2Loop(float seed, float &sink)
{
    __m256 acc[kAccumulators];
    for (int i = 0; i < kAccumulators; ++i)
        acc[i] = _mm256_set1_ps(seed + static_cast<float>(i));
    const __m256 mul = _mm256_set1_ps(0.999999f);
    const __m256 add = _mm256_set1_ps(1e-6f);
    for (std::uint64_t it = 0; it < kIterations; ++it)
        for (int i = 0; i < kAccumulators; ++i)
            acc[i] = _mm256_add_ps(_mm256_mul_ps(acc[i], mul), add);
    __m256 total = acc[0];
    for (int i = 1; i < kAccumulators; ++i)
        total = _mm256_add_ps(total, acc[i]);
    float lanes[8];
    _mm256_storeu_ps(lanes, total);
    sink = lanes[0];
    return kIterations * kAccumulators * 2 * 8;
}
#endif

} // namespace

double
hostPeakGops(unsigned threads)
{
#ifdef PERFBENCH_AVX2
    const bool avx2 = mindful::activeSimdIsa() == mindful::SimdIsa::Avx2;
#endif
    std::vector<float> sinks(threads);
    std::vector<std::uint64_t> ops(threads);
    std::vector<std::thread> workers;
    const double start = nowS();
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            const float seed = static_cast<float>(t) * 0.5f;
#ifdef PERFBENCH_AVX2
            if (avx2) {
                ops[t] = avx2Loop(seed, sinks[t]);
                return;
            }
#endif
            ops[t] = scalarLoop(seed, sinks[t]);
        });
    }
    for (std::thread &worker : workers)
        worker.join();
    const double seconds = nowS() - start;
    std::uint64_t total = 0;
    for (std::uint64_t n : ops)
        total += n;
    volatile float keep = 0.0f;
    for (float s : sinks)
        keep = keep + s;
    return static_cast<double>(total) / seconds / 1e9;
}

} // namespace perfbench
