/**
 * @file
 * SARIF 2.1.0 writer (sarif.hh). Hand-rolled JSON: the schema subset
 * we emit is tiny and a generator dependency would violate the
 * builds-everywhere rule the lint tooling lives by.
 */

#include "sarif.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>

namespace mindful::lint {

namespace {

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 8);
    for (char c : text) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        case '\r':
            out += "\\r";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof buffer, "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buffer;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
ruleDescription(const std::string &check)
{
    static const std::map<std::string, std::string> descriptions{
        {"unit-safety",
         "Physics-layer signatures and fields must use the strong "
         "unit types from base/units.hh, not raw double."},
        {"logging-idiom",
         "No direct stdout/stderr output outside the designated "
         "logging sinks."},
        {"rng-discipline",
         "No rand()/std::random_device; shard lambdas must derive "
         "their stream via Rng::fork()."},
        {"allowlist",
         "The unit-safety allowlist must stay well-formed and "
         "ratcheting: clean files leave the list."},
        {"hot-path",
         "Code reachable from an exec::parallelFor/parallelReduce "
         "shard body must not allocate, lock, log or do by-name "
         "metric lookups."},
        {"unit-algebra",
         "Unwrapped unit accessors of different dimensions must not "
         "mix, and power-density limits must flow through "
         "thermal::safety, not literals."},
        {"rng-flow",
         "A shared Rng engine must not reach a shard body, even "
         "through helper functions; fork a sub-stream per shard."},
        {"suppression",
         "analyze: escape-hatch markers must carry a reason and "
         "suppress a live finding."},
        {"atomics-discipline",
         "Every std::atomic field declares a MINDFUL_ATOMIC_ROLE "
         "publication protocol, and every load/store/RMW on it uses "
         "the memory orders that role permits."},
        {"determinism-flow",
         "Unordered-container iteration, pointer-valued keys and "
         "wall-clock reads must not reach shard bodies; shard "
         "outputs are byte-identical by contract."},
        {"realtime-loop",
         "Nothing reachable from a MINDFUL_RT_LOOP streaming stage "
         "loop may block: no locks, condition waits, sleeps, file or "
         "stream I/O, unbounded spins, or by-name trace span / "
         "metric lookups."},
        {"view-invalidation",
         "A span/string_view/rowData/raw-pointer view of a growable "
         "container must not outlive a push_back/resize/reserve/move "
         "of its source, directly or through a callee growing a "
         "mutable-reference parameter."},
    };
    auto it = descriptions.find(check);
    if (it != descriptions.end())
        return it->second;
    return "mindful-analyze check '" + check + "'.";
}

/** docs/static_analysis.md anchor for one rule id. */
std::string
ruleHelpUri(const std::string &check)
{
    return "docs/static_analysis.md#" + check;
}

} // namespace

void
writeSarif(const std::vector<Finding> &findings,
           const std::string &root_prefix,
           const SnippetProvider &snippets, std::ostream &out)
{
    std::string prefix = root_prefix;
    while (!prefix.empty() && prefix.back() == '/')
        prefix.pop_back();

    std::vector<std::string> rules;
    for (const Finding &finding : findings)
        rules.push_back(finding.check);
    std::sort(rules.begin(), rules.end());
    rules.erase(std::unique(rules.begin(), rules.end()), rules.end());

    out << "{\n"
        << "  \"$schema\": "
           "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
        << "  \"version\": \"2.1.0\",\n"
        << "  \"runs\": [\n"
        << "    {\n"
        << "      \"tool\": {\n"
        << "        \"driver\": {\n"
        << "          \"name\": \"mindful-analyze\",\n"
        << "          \"informationUri\": "
           "\"docs/static_analysis.md\",\n"
        << "          \"rules\": [";
    for (std::size_t i = 0; i < rules.size(); ++i) {
        out << (i == 0 ? "\n" : ",\n")
            << "            {\n"
            << "              \"id\": \"" << jsonEscape(rules[i])
            << "\",\n"
            << "              \"shortDescription\": { \"text\": \""
            << jsonEscape(ruleDescription(rules[i])) << "\" },\n"
            << "              \"helpUri\": \""
            << jsonEscape(ruleHelpUri(rules[i])) << "\"\n"
            << "            }";
    }
    out << (rules.empty() ? "]\n" : "\n          ]\n")
        << "        }\n"
        << "      },\n"
        << "      \"results\": [";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding &finding = findings[i];
        std::string uri = prefix.empty()
                              ? finding.file
                              : prefix + "/" + finding.file;
        out << (i == 0 ? "\n" : ",\n")
            << "        {\n"
            << "          \"ruleId\": \"" << jsonEscape(finding.check)
            << "\",\n"
            << "          \"level\": \"error\",\n"
            << "          \"message\": { \"text\": \""
            << jsonEscape(finding.message) << "\" },\n"
            << "          \"locations\": [\n"
            << "            {\n"
            << "              \"physicalLocation\": {\n"
            << "                \"artifactLocation\": { \"uri\": \""
            << jsonEscape(uri) << "\" },\n"
            << "                \"region\": { \"startLine\": "
            << (finding.line == 0 ? 1 : finding.line);
        // Findings are line-granular, so the region spans the whole
        // source line: startColumn 1 through one past its last
        // character, with the line text as the snippet.
        const std::string text =
            snippets ? snippets(finding.file, finding.line) : "";
        if (!text.empty()) {
            out << ", \"startColumn\": 1, \"endColumn\": "
                << text.size() + 1
                << ", \"snippet\": { \"text\": \"" << jsonEscape(text)
                << "\" }";
        }
        out << " }\n"
            << "              }\n"
            << "            }\n"
            << "          ]\n"
            << "        }";
    }
    out << (findings.empty() ? "]\n" : "\n      ]\n")
        << "    }\n"
        << "  ]\n"
        << "}\n";
}

} // namespace mindful::lint
