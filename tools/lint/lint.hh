/**
 * @file
 * The lexer and the per-file lexical checks of mindful-analyze
 * (analyze.hh runs them on every TU alongside the semantic passes).
 *
 * Three checks enforce idioms the compiler cannot (docs/static_analysis.md):
 *
 *  - unit-safety: public function signatures and struct fields in the
 *    physics layers (thermal/, comm/, ni/, accel/, core/) must use the
 *    strong unit types from base/units.hh instead of raw `double` for
 *    any name that implies a physical dimension. Escape hatch:
 *    `// lint: raw-ok(<reason>)` on the offending line or the line
 *    above; incremental adoption via a ratcheting allowlist.
 *  - logging-idiom: no direct std::cout / std::cerr / stdio output
 *    outside base/logging.cc, base/table.cc and the obs exporters.
 *  - rng-discipline: no rand()/std::random_device anywhere in src/,
 *    and no sharing one Rng engine across exec::parallelFor shards —
 *    shard lambdas must derive their stream via Rng::fork().
 *
 * The checker is tokenizer-based on purpose: no libclang dependency,
 * so it builds and runs everywhere the project does. Findings print
 * as `file:line: [check] message`, one per line, machine-readable.
 */

#ifndef MINDFUL_TOOLS_LINT_LINT_HH
#define MINDFUL_TOOLS_LINT_LINT_HH

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace mindful::lint {

/** One diagnostic: `file:line: [check] message`. */
struct Finding
{
    std::string file;
    std::size_t line = 0;
    std::string check;
    std::string message;
};

/** One lexed token (comments and literals are not tokens). */
struct Token
{
    std::string text;
    std::size_t line = 0;
};

/** A lexed source file plus its suppression markers. */
struct SourceFile
{
    /** Path as reported in findings (relative to the scan root). */
    std::string path;

    std::vector<Token> tokens;

    /** Line of each `lint: raw-ok(...)` comment -> its reason. */
    std::map<std::size_t, std::string> rawOk;

    /**
     * Semantic-analyzer escape hatches, `analyze: <tag>(<reason>)`,
     * keyed by tag ("hot-ok", "unit-ok", "rng-ok", "atomic-ok",
     * "determinism-ok", "rt-ok", "view-ok") then line. Policed exactly like raw-ok: empty
     * reasons and stale markers are findings (tools/lint/analyze.cc).
     */
    std::map<std::string, std::map<std::size_t, std::string>> analyzeOk;
};

/**
 * Lex @p content; @p path is recorded verbatim for findings.
 *
 * The lexer understands the full literal surface of the tree: plain
 * and raw (`R"(...)"`, with delimiters and encoding prefixes) string
 * literals, digit separators (`1'000`), backslash line continuations
 * (in line comments and between tokens), and preprocessor directives
 * (consumed whole, emitting no tokens — macro *definitions* are not
 * analyzable source, macro *uses* are).
 */
SourceFile scanSource(std::string path, const std::string &content);

/**
 * unit-safety over one header. Applies raw-ok suppressions and emits
 * findings for empty raw-ok reasons and for stale raw-ok comments
 * that no longer suppress anything.
 */
std::vector<Finding> checkUnitSafety(const SourceFile &source);

/** logging-idiom over one file (caller excludes the allowed sinks). */
std::vector<Finding> checkLoggingIdiom(const SourceFile &source);

/** rng-discipline over one file. */
std::vector<Finding> checkRngDiscipline(const SourceFile &source);

/**
 * Whether @p name is an Rng draw method (`.name(` advances the
 * engine): the rng-discipline and rng-flow checks share this list.
 */
bool isRngDrawMethod(const std::string &name);

/** Whether @p word (lowercase) names a physical dimension or unit. */
bool isDimensionWord(const std::string &word);

/** Whether identifier @p name implies a physical dimension. */
bool impliesDimension(const std::string &name);

/** One `path : reason` line of the unit-safety allowlist. */
struct AllowlistEntry
{
    std::string file;
    std::string reason;
    std::size_t line = 0; //!< line in the allowlist file
};

/**
 * Parse the allowlist text. Lines are `<path> : <reason>`; blank
 * lines and `#` comments are skipped. Malformed or reason-less lines
 * become findings against @p allowlist_path.
 */
std::vector<AllowlistEntry> parseAllowlist(const std::string &content,
                                           const std::string &allowlist_path,
                                           std::vector<Finding> &findings);

/**
 * Drop unit-safety findings in allowlisted files; every entry whose
 * file has no unit-safety finding left is stale and becomes a finding
 * itself (the ratchet: once a file is clean it must leave the list).
 */
std::vector<Finding> applyAllowlist(std::vector<Finding> findings,
                                    const std::vector<AllowlistEntry> &entries,
                                    const std::string &allowlist_path);

/**
 * Collect the `.hh` / `.cc` files under @p root, sorted by relative
 * path (so every downstream pass is independent of directory-walk
 * order). On failure returns empty and sets @p error.
 */
std::vector<std::string> collectSources(const std::string &root,
                                        std::string &error);

/**
 * Normalize a recorded finding path for check routing: strips the
 * "src/" label multi-root scans prefix, so the unit-dir / logging-sink
 * tables match both the legacy src-relative and the labeled form.
 */
std::string rulePath(const std::string &path);

/**
 * The per-file lexical checks, routed by path: unit-safety for
 * physics-layer headers, logging-idiom everywhere but the designated
 * sinks (and not in bench/, where stdout is the product),
 * rng-discipline everywhere.
 */
std::vector<Finding> lexicalFindings(const SourceFile &source);

/** Stable output order: (file, line, check, message). */
bool findingLess(const Finding &a, const Finding &b);

} // namespace mindful::lint

#endif // MINDFUL_TOOLS_LINT_LINT_HH
