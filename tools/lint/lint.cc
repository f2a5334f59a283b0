#include "lint.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <set>
#include <sstream>
#include <unordered_set>

namespace mindful::lint {

namespace {

bool
isIdentStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** Trim surrounding whitespace in place. */
void
trim(std::string &s)
{
    auto is_space = [](char c) {
        return std::isspace(static_cast<unsigned char>(c));
    };
    while (!s.empty() && is_space(s.front()))
        s.erase(s.begin());
    while (!s.empty() && is_space(s.back()))
        s.pop_back();
}

/**
 * Record the suppression markers found in one comment:
 * `lint: raw-ok(<reason>)` plus the semantic-analyzer hatches
 * spelled `analyze:` followed by one of hot-ok / unit-ok / rng-ok /
 * atomic-ok / determinism-ok and a parenthesized reason. (This
 * comment deliberately avoids writing a well-formed marker, so the
 * analyzer's self-scan does not register a stale suppression here.)
 */
void
noteMarkers(const std::string &comment, std::size_t line, SourceFile &out)
{
    auto reason_at = [&](std::size_t start) {
        auto close = comment.find(')', start);
        std::string reason = close == std::string::npos
                                 ? std::string()
                                 : comment.substr(start, close - start);
        trim(reason);
        return reason;
    };

    const std::string raw_marker = "lint: raw-ok(";
    if (auto pos = comment.find(raw_marker); pos != std::string::npos)
        out.rawOk[line] = reason_at(pos + raw_marker.size());

    static const char *kTags[] = {"hot-ok",    "unit-ok",
                                  "rng-ok",    "atomic-ok",
                                  "determinism-ok", "rt-ok",
                                  "view-ok"};
    for (const char *tag : kTags) {
        std::string marker = std::string("analyze: ") + tag + "(";
        if (auto pos = comment.find(marker); pos != std::string::npos)
            out.analyzeOk[tag][line] = reason_at(pos + marker.size());
    }
}

/** Whether @p ident is a raw-string-literal prefix (R"..., u8R"...). */
bool
isRawStringPrefix(const std::string &ident)
{
    return ident == "R" || ident == "LR" || ident == "uR" ||
           ident == "UR" || ident == "u8R";
}

} // namespace

SourceFile
scanSource(std::string path, const std::string &content)
{
    SourceFile out;
    out.path = std::move(path);

    std::size_t line = 1;
    std::size_t i = 0;
    const std::size_t n = content.size();
    // A UTF-8 byte-order mark would otherwise lex as three junk
    // punctuation tokens and, worse, clear line_start before a
    // `#pragma once` on the first line. Skip it outright.
    if (n >= 3 && content[0] == '\xef' && content[1] == '\xbb' &&
        content[2] == '\xbf')
        i = 3;
    // True until the first token of the current physical line — a '#'
    // here starts a preprocessor directive.
    bool line_start = true;

    auto count_lines = [&](std::size_t from, std::size_t to) {
        line += static_cast<std::size_t>(std::count(
            content.begin() + static_cast<std::ptrdiff_t>(from),
            content.begin() + static_cast<std::ptrdiff_t>(to), '\n'));
    };

    while (i < n) {
        char c = content[i];
        if (c == '\n') {
            ++line;
            ++i;
            line_start = true;
        } else if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
        } else if (c == '\\' && i + 1 < n && content[i + 1] == '\n') {
            // Line splice between tokens: the logical line continues.
            ++line;
            i += 2;
        } else if (c == '\\' && i + 2 < n && content[i + 1] == '\r' &&
                   content[i + 2] == '\n') {
            // CRLF line splice: same continuation, Windows endings.
            ++line;
            i += 3;
        } else if (c == '#' && line_start) {
            // Preprocessor directive: consume the whole logical line
            // (honoring backslash continuations) without emitting
            // tokens — macro definitions are not analyzable source.
            // Stop at a comment start so markers there still register.
            while (i < n && content[i] != '\n') {
                if (content[i] == '\\' && i + 1 < n &&
                    content[i + 1] == '\n') {
                    ++line;
                    i += 2;
                    continue;
                }
                if (content[i] == '\\' && i + 2 < n &&
                    content[i + 1] == '\r' && content[i + 2] == '\n') {
                    ++line;
                    i += 3;
                    continue;
                }
                if (content[i] == '/' && i + 1 < n &&
                    (content[i + 1] == '/' || content[i + 1] == '*'))
                    break;
                ++i;
            }
            line_start = false;
        } else if (c == '/' && i + 1 < n && content[i + 1] == '/') {
            // Line comment; a trailing backslash continues it onto the
            // next physical line (common in macro tables).
            const std::size_t comment_line = line;
            std::size_t end = i;
            while (true) {
                end = content.find('\n', end);
                if (end == std::string::npos) {
                    end = n;
                    break;
                }
                std::size_t back = end;
                if (back > i && content[back - 1] == '\r')
                    --back;
                if (back > i && content[back - 1] == '\\') {
                    ++line;
                    ++end; // past the newline, keep scanning
                    continue;
                }
                break;
            }
            noteMarkers(content.substr(i, end - i), comment_line, out);
            i = end;
            line_start = false;
        } else if (c == '/' && i + 1 < n && content[i + 1] == '*') {
            auto end = content.find("*/", i + 2);
            if (end == std::string::npos)
                end = n;
            else
                end += 2;
            noteMarkers(content.substr(i, end - i), line, out);
            count_lines(i, end);
            i = end;
            line_start = false;
        } else if (c == '"') {
            // Plain string literal, honoring escapes. Emitted as one
            // token (quotes included) so the parser can read marker
            // payloads (MINDFUL_RT_LOOP("stage")) and so call
            // arguments keep their positions past string args.
            const std::size_t start = i;
            const std::size_t start_line = line;
            ++i;
            while (i < n && content[i] != '"') {
                if (content[i] == '\\' && i + 1 < n)
                    ++i;
                if (content[i] == '\n')
                    ++line;
                ++i;
            }
            ++i;
            out.tokens.push_back(
                {content.substr(start, std::min(i, n) - start),
                 start_line});
            line_start = false;
        } else if (c == '\'') {
            // Skip char literals, honoring escapes.
            ++i;
            while (i < n && content[i] != '\'') {
                if (content[i] == '\\' && i + 1 < n)
                    ++i;
                if (content[i] == '\n')
                    ++line;
                ++i;
            }
            ++i;
            line_start = false;
        } else if (isIdentStart(c)) {
            std::size_t start = i;
            while (i < n && isIdentChar(content[i]))
                ++i;
            std::string ident = content.substr(start, i - start);
            if (i < n && content[i] == '"' && isRawStringPrefix(ident)) {
                // Raw string literal: R"delim( ... )delim". No escape
                // processing; ends only at the matching delimiter.
                ++i;
                std::size_t dstart = i;
                while (i < n && content[i] != '(')
                    ++i;
                std::string closer =
                    ")" + content.substr(dstart, i - dstart) + "\"";
                auto end = content.find(closer, i);
                std::size_t stop =
                    end == std::string::npos ? n : end + closer.size();
                count_lines(i, stop);
                i = stop;
            } else {
                out.tokens.push_back({std::move(ident), line});
            }
            line_start = false;
        } else if (std::isdigit(static_cast<unsigned char>(c))) {
            std::size_t start = i;
            while (i < n &&
                   (isIdentChar(content[i]) || content[i] == '.' ||
                    ((content[i] == '+' || content[i] == '-') &&
                     (content[i - 1] == 'e' || content[i - 1] == 'E')) ||
                    // digit separator: 1'000'000
                    (content[i] == '\'' && i + 1 < n &&
                     isIdentChar(content[i + 1]))))
                ++i;
            out.tokens.push_back({content.substr(start, i - start), line});
            line_start = false;
        } else {
            out.tokens.push_back({std::string(1, c), line});
            ++i;
            line_start = false;
        }
    }
    return out;
}

// --- unit-safety ----------------------------------------------------------

namespace {

const std::unordered_set<std::string> &
dimensionWords()
{
    static const std::unordered_set<std::string> words{
        // dimensions
        "power", "energy", "area", "width", "depth", "height", "length",
        "radius", "diameter", "spacing", "distance", "temperature",
        "conductivity", "density", "heat", "frequency", "freq", "latency",
        "duration", "period", "bandwidth", "wavelength", "voltage",
        "resistance", "capacitance", "inductance", "mass", "rate", "flux",
        // spelled-out units
        "watts", "milliwatts", "microwatts", "joules", "picojoules",
        "nanojoules", "hertz", "kilohertz", "megahertz", "gigahertz",
        "metres", "meters", "millimetres", "micrometres", "kelvin",
        "celsius",
        // unit suffixes as identifier words (power_mw, spacing_um, ...)
        "mw", "uw", "nw", "pj", "nj", "uj", "mj", "mm", "um", "cm",
        "mm2", "cm2", "um2", "khz", "mhz", "ghz", "hz", "mbps", "kbps",
        "bps", "ns", "degc",
    };
    return words;
}

const std::unordered_set<std::string> &
dimensionlessHints()
{
    // Words marking a quantity as already dimensionless (ratios,
    // dB-scaled values, normalized shapes) — their presence vetoes
    // the dimension words above within one identifier.
    static const std::unordered_set<std::string> words{
        "ratio",      "fraction", "factor",   "relative", "normalized",
        "linear",     "db",       "dbm",      "utilization",
        "efficiency", "gain",     "loss",     "snr",      "weight",
        "error",      "scale",    "correction", "probability",
    };
    return words;
}

/** Split camelCase / snake_case / digits into lowercase words. */
std::vector<std::string>
splitWords(const std::string &ident)
{
    std::vector<std::string> words;
    std::string current;
    auto flush = [&] {
        if (!current.empty()) {
            words.push_back(current);
            current.clear();
        }
    };
    for (std::size_t i = 0; i < ident.size(); ++i) {
        char c = ident[i];
        if (c == '_') {
            flush();
        } else if (std::isupper(static_cast<unsigned char>(c))) {
            // Uppercase run start: new word unless continuing an
            // acronym ("BER" stays one word, "berFloor" splits).
            bool prev_upper =
                i > 0 &&
                std::isupper(static_cast<unsigned char>(ident[i - 1]));
            if (!prev_upper)
                flush();
            current.push_back(static_cast<char>(
                std::tolower(static_cast<unsigned char>(c))));
        } else {
            current.push_back(c);
        }
    }
    flush();
    // Merge trailing digits into the preceding word so "mm2" / "n0"
    // survive splitting ("mm" + "2" came out as one token already —
    // digits are ident chars — but "penetrationDepth2" should not
    // split oddly either).
    return words;
}

bool
isTypeQualifier(const std::string &t)
{
    return t == "const" || t == "constexpr" || t == "static" ||
           t == "mutable" || t == "inline" || t == "volatile" ||
           t == "unsigned" || t == "signed";
}

/** Scope kinds for the brace-tracking pass. */
enum class ScopeKind { Namespace, ClassPublic, ClassPrivate, Function,
                       Enum, Block };

} // namespace

bool
isDimensionWord(const std::string &word)
{
    return dimensionWords().count(word) > 0;
}

bool
impliesDimension(const std::string &name)
{
    bool has_dimension = false;
    for (const std::string &word : splitWords(name)) {
        if (dimensionlessHints().count(word))
            return false;
        if (dimensionWords().count(word))
            has_dimension = true;
    }
    return has_dimension;
}

std::vector<Finding>
checkUnitSafety(const SourceFile &source)
{
    std::vector<Finding> raw_findings;
    const auto &tokens = source.tokens;

    // Scope stack. Declarations are checked only at namespace or
    // public class scope; function bodies and private members are
    // skipped.
    std::vector<ScopeKind> scopes;
    scopes.push_back(ScopeKind::Namespace); // file scope

    // Declaration head since the last ; { } — used to classify the
    // next '{'.
    std::vector<std::size_t> head; // token indices

    auto headHas = [&](const char *word) {
        for (std::size_t idx : head)
            if (tokens[idx].text == word)
                return true;
        return false;
    };

    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const std::string &t = tokens[i].text;

        if (t == "{") {
            ScopeKind kind = ScopeKind::Block;
            if (headHas("namespace")) {
                kind = ScopeKind::Namespace;
            } else if (headHas("enum")) {
                kind = ScopeKind::Enum;
            } else if (headHas("struct") || headHas("union")) {
                kind = ScopeKind::ClassPublic;
            } else if (headHas("class")) {
                kind = ScopeKind::ClassPrivate;
            } else if (!head.empty()) {
                // A ')' in the head means a function signature (body
                // follows); anything else is an initializer or block.
                for (std::size_t idx : head) {
                    if (tokens[idx].text == ")") {
                        kind = ScopeKind::Function;
                        break;
                    }
                }
            }
            scopes.push_back(kind);
            head.clear();
            continue;
        }
        if (t == "}") {
            if (scopes.size() > 1)
                scopes.pop_back();
            head.clear();
            continue;
        }
        if (t == ";") {
            head.clear();
            continue;
        }

        ScopeKind scope = scopes.back();
        if (scope == ScopeKind::Function || scope == ScopeKind::Block ||
            scope == ScopeKind::Enum) {
            continue; // bodies and enumerators are not API surface
        }

        // Access specifiers flip class scope.
        if ((t == "public" || t == "private" || t == "protected") &&
            i + 1 < tokens.size() && tokens[i + 1].text == ":" &&
            (scope == ScopeKind::ClassPublic ||
             scope == ScopeKind::ClassPrivate)) {
            scopes.back() = t == "public" ? ScopeKind::ClassPublic
                                          : ScopeKind::ClassPrivate;
            ++i; // consume ':'
            continue;
        }

        head.push_back(i);

        if (scope == ScopeKind::ClassPrivate)
            continue; // private members may stay raw

        if (t != "double")
            continue;

        // `double [*&] [qualifiers] <ident>` — field, parameter, or
        // function name. Template arguments (`vector<double>`) have a
        // non-identifier successor and fall out naturally.
        std::size_t j = i + 1;
        while (j < tokens.size() && (tokens[j].text == "*" ||
                                     tokens[j].text == "&" ||
                                     isTypeQualifier(tokens[j].text)))
            ++j;
        if (j >= tokens.size() || !isIdentStart(tokens[j].text[0]))
            continue;
        const std::string &name = tokens[j].text;
        if (isTypeQualifier(name) || name == "operator")
            continue;
        if (!impliesDimension(name))
            continue;

        bool is_function = j + 1 < tokens.size() &&
                           tokens[j + 1].text == "(";
        const char *what = is_function ? "function" : "declaration";
        raw_findings.push_back(
            {source.path, tokens[j].line, "unit-safety",
             std::string("public ") + what + " '" + name +
                 "' implies a physical dimension but uses raw double; "
                 "use a strong type from base/units.hh or annotate "
                 "// lint: raw-ok(<reason>)"});
    }

    // Apply raw-ok suppressions (same line or the line above) and
    // police the suppressions themselves.
    std::vector<Finding> findings;
    std::set<std::size_t> used_raw_ok;
    for (auto &finding : raw_findings) {
        auto it = source.rawOk.find(finding.line);
        if (it == source.rawOk.end() && finding.line > 1)
            it = source.rawOk.find(finding.line - 1);
        if (it != source.rawOk.end()) {
            used_raw_ok.insert(it->first);
            if (it->second.empty()) {
                findings.push_back(
                    {source.path, it->first, "unit-safety",
                     "raw-ok suppression needs a non-empty reason: "
                     "// lint: raw-ok(<reason>)"});
            }
            continue;
        }
        findings.push_back(std::move(finding));
    }
    for (const auto &[line, reason] : source.rawOk) {
        if (!used_raw_ok.count(line)) {
            findings.push_back(
                {source.path, line, "unit-safety",
                 "stale raw-ok suppression: no raw-double finding on "
                 "this or the next line — remove the comment"});
        }
    }
    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  return a.line < b.line;
              });
    return findings;
}

// --- logging-idiom --------------------------------------------------------

std::vector<Finding>
checkLoggingIdiom(const SourceFile &source)
{
    static const std::unordered_set<std::string> banned{
        "cout",   "cerr",  "printf",    "fprintf", "sprintf",
        "snprintf", "puts", "fputs",    "putchar", "vprintf",
        "vfprintf", "vsnprintf",
    };
    std::vector<Finding> findings;
    for (const Token &token : source.tokens) {
        if (!banned.count(token.text))
            continue;
        findings.push_back(
            {source.path, token.line, "logging-idiom",
             "direct stream/stdio output ('" + token.text +
                 "') outside the logging/export sinks; use "
                 "MINDFUL_INFORM / MINDFUL_WARN (base/logging.hh)"});
    }
    return findings;
}

// --- rng-discipline -------------------------------------------------------

bool
isRngDrawMethod(const std::string &name)
{
    static const std::unordered_set<std::string> methods{
        "gaussian", "uniform", "uniformInt", "bernoulli", "bits",
    };
    return methods.count(name) != 0;
}

std::vector<Finding>
checkRngDiscipline(const SourceFile &source)
{
    std::vector<Finding> findings;
    const auto &tokens = source.tokens;

    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const std::string &t = tokens[i].text;

        if (t == "random_device") {
            findings.push_back(
                {source.path, tokens[i].line, "rng-discipline",
                 "std::random_device is non-deterministic; seed an "
                 "explicit mindful::Rng instead (base/random.hh)"});
            continue;
        }
        if ((t == "rand" || t == "srand") && i + 1 < tokens.size() &&
            tokens[i + 1].text == "(") {
            findings.push_back(
                {source.path, tokens[i].line, "rng-discipline",
                 "C library " + t + "() is non-deterministic global "
                 "state; use an explicit mindful::Rng "
                 "(base/random.hh)"});
            continue;
        }

        if (t != "parallelFor")
            continue;

        // The call's argument span: its '(' through the matching ')'.
        const std::size_t j = i + 1;
        if (j >= tokens.size() || tokens[j].text != "(")
            continue; // declaration or mention, not a call
        int depth = 0;
        std::size_t end = j;
        for (; end < tokens.size(); ++end) {
            if (tokens[end].text == "(")
                ++depth;
            else if (tokens[end].text == ")" && --depth == 0)
                break;
        }

        bool forks = false;
        bool draws = false;
        std::string draw_name;
        for (std::size_t k = j; k < end; ++k) {
            const std::string &inner = tokens[k].text;
            if (inner == "fork") {
                forks = true;
            } else if (isRngDrawMethod(inner) && k > 0 &&
                       tokens[k - 1].text == "." &&
                       k + 1 < tokens.size() &&
                       tokens[k + 1].text == "(") {
                if (!draws) {
                    draws = true;
                    draw_name = inner;
                }
            }
        }
        if (draws && !forks) {
            findings.push_back(
                {source.path, tokens[i].line, "rng-discipline",
                 "shard lambda passed to " + t + " draws (." +
                     draw_name + "()) from an engine that is not "
                     "derived via Rng::fork(stream); sharing one "
                     "engine across shards breaks determinism "
                     "(docs/parallelism.md)"});
        }
        i = end;
    }
    return findings;
}

// --- allowlist ------------------------------------------------------------

std::vector<AllowlistEntry>
parseAllowlist(const std::string &content,
               const std::string &allowlist_path,
               std::vector<Finding> &findings)
{
    std::vector<AllowlistEntry> entries;
    std::istringstream lines(content);
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(lines, line)) {
        ++line_no;
        auto first = line.find_first_not_of(" \t");
        if (first == std::string::npos || line[first] == '#')
            continue;
        auto colon = line.find(':', first);
        std::string file = line.substr(
            first, colon == std::string::npos ? std::string::npos
                                              : colon - first);
        while (!file.empty() && (file.back() == ' ' || file.back() == '\t'))
            file.pop_back();
        std::string reason;
        if (colon != std::string::npos) {
            auto start = line.find_first_not_of(" \t", colon + 1);
            if (start != std::string::npos)
                reason = line.substr(start);
        }
        if (file.empty() || reason.empty()) {
            findings.push_back(
                {allowlist_path, line_no, "allowlist",
                 "malformed entry; expected `<path> : <reason>` with "
                 "a non-empty reason"});
            continue;
        }
        entries.push_back({file, reason, line_no});
    }
    return entries;
}

std::vector<Finding>
applyAllowlist(std::vector<Finding> findings,
               const std::vector<AllowlistEntry> &entries,
               const std::string &allowlist_path)
{
    std::set<std::string> allowlisted;
    for (const auto &entry : entries)
        allowlisted.insert(entry.file);

    std::set<std::string> suppressed_files;
    std::vector<Finding> kept;
    for (auto &finding : findings) {
        if (finding.check == "unit-safety" &&
            allowlisted.count(finding.file)) {
            suppressed_files.insert(finding.file);
            continue;
        }
        kept.push_back(std::move(finding));
    }
    // The ratchet: an allowlisted file with nothing left to suppress
    // must leave the list, so coverage only ever grows.
    for (const auto &entry : entries) {
        if (!suppressed_files.count(entry.file)) {
            kept.push_back(
                {allowlist_path, entry.line, "allowlist",
                 "stale entry '" + entry.file +
                     "' (allowlisted because: " + entry.reason +
                     "): the file has no unit-safety findings left; "
                     "remove it so the ratchet holds"});
        }
    }
    return kept;
}

// --- driver ---------------------------------------------------------------

namespace {

/** Directories (relative to root) whose headers are physics API. */
const std::vector<std::string> kUnitDirs = {"thermal/", "comm/", "ni/",
                                            "accel/", "core/"};

/** Files allowed to talk to the process's stdio/stream sinks. */
const std::set<std::string> kLoggingSinks = {
    "base/logging.cc",    // the sink implementation itself
    "base/table.cc",      // table pretty-printer (print/printCsv)
    "obs/metrics.cc",     // metric CSV/JSON exporters
    "obs/trace.cc",       // Chrome trace_event exporter
    "tools/lint/main.cc", // CLI entry point: findings go to stdout
    "tools/lint/sarif.cc", // JSON emitter (snprintf for numerics)
};

bool
startsWithAny(const std::string &path, const std::vector<std::string> &dirs)
{
    for (const auto &dir : dirs)
        if (path.rfind(dir, 0) == 0)
            return true;
    return false;
}

} // namespace

std::vector<std::string>
collectSources(const std::string &root, std::string &error)
{
    namespace fs = std::filesystem;
    std::vector<std::string> files;
    std::error_code ec;
    for (fs::recursive_directory_iterator it(root, ec), endit;
         it != endit && !ec; it.increment(ec)) {
        if (!it->is_regular_file())
            continue;
        auto ext = it->path().extension().string();
        if (ext != ".hh" && ext != ".cc")
            continue;
        files.push_back(
            fs::relative(it->path(), root).generic_string());
    }
    if (ec) {
        error = "cannot walk source root: " + ec.message();
        return {};
    }
    std::sort(files.begin(), files.end());
    return files;
}

std::string
rulePath(const std::string &path)
{
    // Multi-root scans record paths with the root's label prefixed
    // ("src/thermal/model.hh"); the routing tables below are written
    // against the historical src-relative form. Strip the one label
    // that changes routing so both spellings behave identically.
    if (path.rfind("src/", 0) == 0)
        return path.substr(4);
    return path;
}

std::vector<Finding>
lexicalFindings(const SourceFile &source)
{
    std::vector<Finding> findings;
    const std::string relative = rulePath(source.path);
    if (relative.size() > 3 &&
        relative.compare(relative.size() - 3, 3, ".hh") == 0 &&
        startsWithAny(relative, kUnitDirs)) {
        auto unit = checkUnitSafety(source);
        findings.insert(findings.end(), unit.begin(), unit.end());
    }
    // Bench binaries write their reports to stdout by design — stdout
    // is the product there, not stray logging.
    const bool bench = relative.rfind("bench/", 0) == 0;
    if (!bench && !kLoggingSinks.count(relative)) {
        auto logging = checkLoggingIdiom(source);
        findings.insert(findings.end(), logging.begin(), logging.end());
    }
    auto rng = checkRngDiscipline(source);
    findings.insert(findings.end(), rng.begin(), rng.end());
    return findings;
}

bool
findingLess(const Finding &a, const Finding &b)
{
    if (a.file != b.file)
        return a.file < b.file;
    if (a.line != b.line)
        return a.line < b.line;
    if (a.check != b.check)
        return a.check < b.check;
    return a.message < b.message;
}

} // namespace mindful::lint
