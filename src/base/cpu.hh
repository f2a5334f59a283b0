/**
 * @file
 * Runtime CPU feature detection for the SIMD kernel dispatch tier.
 *
 * The DNN forward path (src/dnn/gemm.hh) carries one kernel per
 * vector ISA; this module decides, once per process, which of them
 * the hardware can run. Detection uses CPUID (via
 * `__builtin_cpu_supports`) on x86-64 and AT_HWCAP (`getauxval`) on
 * AArch64 Linux. The `MINDFUL_SIMD` environment variable
 * (`scalar|avx2|avx512|neon`) overrides detection for testing — forcing an
 * ISA the host cannot run (or that was not compiled in) is fatal, so
 * a forced run never silently falls back to a different kernel than
 * the one under test.
 *
 * Which ISAs are *compiled in* is a build-time fact: the per-ISA
 * translation units (src/dnn/gemm_avx2.cc, gemm_avx512.cc,
 * gemm_neon.cc) are only added on matching architectures
 * (src/dnn/CMakeLists.txt), and the same `MINDFUL_HAVE_AVX2` /
 * `MINDFUL_HAVE_AVX512` / `MINDFUL_HAVE_NEON` definitions gate the
 * dispatch table here.
 */

#ifndef MINDFUL_BASE_CPU_HH
#define MINDFUL_BASE_CPU_HH

#include <cstdint>
#include <string>

namespace mindful {

/** Vector ISA tiers of the GEMM dispatch (scalar is always present). */
enum class SimdIsa : std::uint8_t {
    Scalar, //!< portable scalar kernels, every platform
    Avx2,   //!< x86-64 AVX2 (8-lane fp32), no FMA (bit-exactness)
    Avx512, //!< x86-64 AVX-512F (16-lane fp32), no FMA
    Neon    //!< AArch64 Advanced SIMD (4-lane fp32)
};

/** Lower-case name used by `MINDFUL_SIMD` and the run manifest. */
const char *simdIsaName(SimdIsa isa);

/**
 * Parse a `MINDFUL_SIMD` value. Returns true and sets @p out for
 * "scalar", "avx2", "avx512" or "neon" (exact, lower-case); false
 * otherwise.
 */
bool parseSimdIsaName(const std::string &text, SimdIsa &out);

/** True when kernels for @p isa were compiled into this binary. */
bool simdIsaCompiled(SimdIsa isa);

/** True when @p isa is compiled in AND the host CPU can execute it. */
bool simdIsaSupported(SimdIsa isa);

/**
 * Best supported ISA for this host (ignores the env override):
 * Avx512 > Avx2 > Neon > Scalar among the supported set.
 */
SimdIsa detectSimdIsa();

/**
 * The ISA the GEMM tier dispatches to. Resolved on first call —
 * `MINDFUL_SIMD` if set (fatal when unparseable or unsupported),
 * detectSimdIsa() otherwise — then cached; later calls are one
 * relaxed atomic load. forceSimdIsa() replaces the cached value.
 */
SimdIsa activeSimdIsa();

/**
 * Replace the dispatched ISA (testing / benchmarking hook, e.g. to
 * measure every tier in one process). Fatal if @p isa is not
 * supported on this host. Not thread-safe against concurrent kernel
 * launches — call between kernel invocations only.
 */
void forceSimdIsa(SimdIsa isa);

} // namespace mindful

#endif // MINDFUL_BASE_CPU_HH
