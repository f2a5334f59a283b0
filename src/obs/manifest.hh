/**
 * @file
 * Run manifest: the provenance block stamped into every trace and
 * metrics export.
 *
 * A perf trajectory (BENCH_obs.json, a perfbench result) or an
 * hour-long soak trace is only evidence if it says *what ran*: the
 * git revision, the build configuration, the compiler, the thread
 * count, and a hash of the command line that produced it. The
 * manifest collects exactly that and the exporters embed it as a
 * JSON object (`"otherData"` in trace_event files, `"_manifest"` in
 * metric snapshots, `"manifest"` in bench JSON artifacts).
 *
 * The git SHA and build type are baked in at configure time
 * (src/obs/CMakeLists.txt); the thread count and config hash are
 * runtime facts published by the thread pool and bench_util.
 */

#ifndef MINDFUL_OBS_MANIFEST_HH
#define MINDFUL_OBS_MANIFEST_HH

#include <cstdint>
#include <iosfwd>
#include <string>

namespace mindful::obs {

struct RunManifest
{
    std::string gitSha;    //!< `git rev-parse --short HEAD` at configure
    std::string buildType; //!< CMAKE_BUILD_TYPE
    std::string compiler;  //!< compiler id/version seen at compile time
    std::string simdIsa;   //!< dispatched GEMM tier (base/cpu.hh)
    unsigned threads = 0;  //!< global pool width (0 = pool never sized)
    std::uint64_t configHash = 0; //!< FNV-1a of the full command line

    /** Assemble the manifest for this process, as of now. */
    static RunManifest current();

    /** Emit as a JSON object (`{"git_sha": ..., ...}`), escaped. */
    void writeJsonObject(std::ostream &os) const;
};

/**
 * FNV-1a over the argv vector (NUL-separated), the canonical config
 * hash: two runs with the same binary and flags hash identically.
 */
std::uint64_t hashCommandLine(int argc, char **argv);

/** Publish the config hash for RunManifest::current() (bench_util). */
void setManifestConfigHash(std::uint64_t hash);

/**
 * Publish the pool width for RunManifest::current(). Called by the
 * exec thread pool on (re)construction; obs cannot link against exec.
 */
void setManifestThreadCount(unsigned threads);

} // namespace mindful::obs

#endif // MINDFUL_OBS_MANIFEST_HH
