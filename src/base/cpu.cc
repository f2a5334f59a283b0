#include "base/cpu.hh"

#include <atomic>
#include <cstdlib>

#include "base/compiler.hh"
#include "base/logging.hh"

#if defined(__aarch64__) && defined(__linux__)
#include <sys/auxv.h>
#ifndef HWCAP_ASIMD
#define HWCAP_ASIMD (1 << 1)
#endif
#endif

namespace mindful {
namespace {

/**
 * CPU capability, independent of what was compiled in. On x86-64 the
 * builtin executes CPUID once and caches inside libgcc/compiler-rt;
 * on AArch64 Linux AT_HWCAP carries the ASIMD bit (baseline for the
 * architecture, but checking keeps the claim honest).
 */
bool
cpuCanRun(SimdIsa isa)
{
    switch (isa) {
    case SimdIsa::Scalar:
        return true;
    case SimdIsa::Avx2:
#if defined(__x86_64__) || defined(_M_X64)
        return __builtin_cpu_supports("avx2") != 0;
#else
        return false;
#endif
    case SimdIsa::Avx512:
#if defined(__x86_64__) || defined(_M_X64)
        return __builtin_cpu_supports("avx512f") != 0;
#else
        return false;
#endif
    case SimdIsa::Neon:
#if defined(__aarch64__) && defined(__linux__)
        return (getauxval(AT_HWCAP) & HWCAP_ASIMD) != 0;
#elif defined(__aarch64__)
        return true; // ASIMD is architecturally baseline on AArch64
#else
        return false;
#endif
    }
    return false;
}

/** 0 = unresolved; otherwise 1 + static_cast<int>(SimdIsa). */
MINDFUL_ATOMIC_ROLE(once_flag)
std::atomic<std::uint8_t> g_active{0};

SimdIsa
resolveActive()
{
    const char *env = std::getenv("MINDFUL_SIMD");
    if (env != nullptr && *env != '\0') {
        SimdIsa requested;
        if (!parseSimdIsaName(env, requested))
            MINDFUL_FATAL("MINDFUL_SIMD=", env,
                          " is not one of scalar|avx2|avx512|neon");
        if (!simdIsaSupported(requested))
            MINDFUL_FATAL("MINDFUL_SIMD=", env, " requested, but ",
                          simdIsaName(requested),
                          " kernels are unavailable on this host "
                          "(not compiled in or CPU lacks the ISA)");
        return requested;
    }
    return detectSimdIsa();
}

} // namespace

const char *
simdIsaName(SimdIsa isa)
{
    switch (isa) {
    case SimdIsa::Scalar:
        return "scalar";
    case SimdIsa::Avx2:
        return "avx2";
    case SimdIsa::Avx512:
        return "avx512";
    case SimdIsa::Neon:
        return "neon";
    }
    return "unknown";
}

bool
parseSimdIsaName(const std::string &text, SimdIsa &out)
{
    if (text == "scalar") {
        out = SimdIsa::Scalar;
        return true;
    }
    if (text == "avx2") {
        out = SimdIsa::Avx2;
        return true;
    }
    if (text == "avx512") {
        out = SimdIsa::Avx512;
        return true;
    }
    if (text == "neon") {
        out = SimdIsa::Neon;
        return true;
    }
    return false;
}

bool
simdIsaCompiled(SimdIsa isa)
{
    switch (isa) {
    case SimdIsa::Scalar:
        return true;
    case SimdIsa::Avx2:
#if defined(MINDFUL_HAVE_AVX2)
        return true;
#else
        return false;
#endif
    case SimdIsa::Avx512:
#if defined(MINDFUL_HAVE_AVX512)
        return true;
#else
        return false;
#endif
    case SimdIsa::Neon:
#if defined(MINDFUL_HAVE_NEON)
        return true;
#else
        return false;
#endif
    }
    return false;
}

bool
simdIsaSupported(SimdIsa isa)
{
    return simdIsaCompiled(isa) && cpuCanRun(isa);
}

SimdIsa
detectSimdIsa()
{
    if (simdIsaSupported(SimdIsa::Avx512))
        return SimdIsa::Avx512;
    if (simdIsaSupported(SimdIsa::Avx2))
        return SimdIsa::Avx2;
    if (simdIsaSupported(SimdIsa::Neon))
        return SimdIsa::Neon;
    return SimdIsa::Scalar;
}

SimdIsa
activeSimdIsa()
{
    std::uint8_t cached = g_active.load(std::memory_order_relaxed);
    if (cached != 0)
        return static_cast<SimdIsa>(cached - 1);
    // Two threads racing the first call resolve the same value (env
    // and CPUID are both stable), so the double store is benign.
    SimdIsa resolved = resolveActive();
    g_active.store(static_cast<std::uint8_t>(resolved) + 1,
                   std::memory_order_relaxed);
    return resolved;
}

void
forceSimdIsa(SimdIsa isa)
{
    MINDFUL_ASSERT(simdIsaSupported(isa), "cannot force SIMD ISA ",
                   simdIsaName(isa),
                   ": not compiled in or unsupported on this CPU");
    g_active.store(static_cast<std::uint8_t>(isa) + 1,
                   std::memory_order_relaxed);
}

} // namespace mindful
