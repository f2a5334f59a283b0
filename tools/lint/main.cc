/**
 * @file
 * mindful-analyze CLI. Usage:
 *
 *   mindful-analyze --root src [--root tools --root bench ...]
 *       [--allowlist tools/lint/allowlist.txt] [--sarif out.sarif]
 *
 * `--root` repeats. Finding paths are prefixed with each relative
 * root's lexically normal name ("src/...", "tools/..."; "." adds no
 * prefix), so a run from the repository top level reports
 * repo-relative paths whether one root or several are given. An
 * absolute root has no natural prefix and reports root-relative paths.
 *
 * Every run applies the lexical and the semantic checks. Exits 0 when
 * the tree is clean, 1 when any finding survives, 2 on a driver error.
 * Findings print as `file:line: [check] message`.
 */

#include <iostream>
#include <string>

#include "analyze.hh"

namespace {

const char *kUsage =
    "usage: mindful-analyze --root <dir> [--root <dir> ...]\n"
    "           [--allowlist <file>] [--sarif <file>]\n";

} // namespace

int
main(int argc, char **argv)
{
    mindful::lint::AnalyzeOptions options;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--root" && i + 1 < argc) {
            const std::string dir = argv[++i];
            options.roots.push_back({dir, mindful::lint::rootLabel(dir)});
        } else if (arg == "--allowlist" && i + 1 < argc) {
            options.allowlistPath = argv[++i];
        } else if (arg == "--sarif" && i + 1 < argc) {
            options.sarifPath = argv[++i];
        } else if (arg == "--help" || arg == "-h") {
            std::cout << kUsage;
            return 0;
        } else {
            std::cerr << "mindful-analyze: unknown argument '" << arg
                      << "'\n"
                      << kUsage;
            return 2;
        }
    }
    if (options.roots.empty()) {
        std::cerr << "mindful-analyze: --root is required\n" << kUsage;
        return 2;
    }
    return mindful::lint::runAnalyze(options, std::cout, std::cerr);
}
