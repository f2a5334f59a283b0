/**
 * @file
 * FileFacts (de)serialization for the incremental cache (cache.hh).
 */

#include "cache.hh"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <vector>

namespace mindful::lint {

namespace {

/**
 * Bump whenever FileFacts or the record layout changes shape.
 * v2: atomics-discipline ('A' decls, 'O' ops) and determinism-flow
 * ('z' hazards) records.
 * v3: realtime-loop and view-invalidation — rtRoot flag on 'F',
 * mutableRef on 'p', call token position on 'c', plus 'b' blocker,
 * 'V' view and 'G' grow records.
 * v4: freeFunction flag on 'F', member-call flag on 'c'.
 */
constexpr const char *kCacheVersion = "4";

std::string
escapeField(const std::string &field)
{
    if (field.empty())
        return "\\e";
    std::string out;
    out.reserve(field.size());
    for (char c : field) {
        switch (c) {
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        case ' ':
            out += "\\s";
            break;
        default:
            out += c;
        }
    }
    return out;
}

std::optional<std::string>
unescapeField(const std::string &field)
{
    if (field == "\\e")
        return std::string();
    if (field.empty())
        return std::nullopt; // empty must be spelled \e
    std::string out;
    out.reserve(field.size());
    for (std::size_t i = 0; i < field.size(); ++i) {
        if (field[i] != '\\') {
            out += field[i];
            continue;
        }
        if (i + 1 >= field.size())
            return std::nullopt;
        switch (field[++i]) {
        case '\\':
            out += '\\';
            break;
        case 'n':
            out += '\n';
            break;
        case 't':
            out += '\t';
            break;
        case 's':
            out += ' ';
            break;
        default:
            return std::nullopt;
        }
    }
    return out;
}

std::vector<std::string>
splitFields(const std::string &line)
{
    std::vector<std::string> fields;
    std::size_t start = 0;
    while (start <= line.size()) {
        std::size_t space = line.find(' ', start);
        if (space == std::string::npos) {
            fields.push_back(line.substr(start));
            break;
        }
        fields.push_back(line.substr(start, space - start));
        start = space + 1;
    }
    return fields;
}

std::optional<std::size_t>
parseSize(const std::string &field)
{
    if (field.empty() || field.size() > 18)
        return std::nullopt;
    std::size_t value = 0;
    for (char c : field) {
        if (c < '0' || c > '9')
            return std::nullopt;
        value = value * 10 + static_cast<std::size_t>(c - '0');
    }
    return value;
}

std::filesystem::path
cachePath(const std::string &cache_dir, const std::string &key)
{
    return std::filesystem::path(cache_dir) / (key + ".facts");
}

void
writeFinding(std::ostream &out, char tag, const Finding &finding)
{
    out << tag << ' ' << escapeField(finding.file) << ' '
        << finding.line << ' ' << escapeField(finding.check) << ' '
        << escapeField(finding.message) << '\n';
}

bool
readFinding(const std::vector<std::string> &fields, Finding &finding)
{
    if (fields.size() != 5)
        return false;
    auto file = unescapeField(fields[1]);
    auto line = parseSize(fields[2]);
    auto check = unescapeField(fields[3]);
    auto message = unescapeField(fields[4]);
    if (!file || !line || !check || !message)
        return false;
    finding = {*file, *line, *check, *message};
    return true;
}

} // namespace

std::string
factsCacheKey(const std::string &path, const std::string &content)
{
    // FNV-1a 64
    std::uint64_t hash = 1469598103934665603ull;
    auto mix = [&hash](const std::string &bytes) {
        for (char c : bytes) {
            hash ^= static_cast<unsigned char>(c);
            hash *= 1099511628211ull;
        }
        hash ^= 0xff; // field separator outside any byte value
        hash *= 1099511628211ull;
    };
    mix(kCacheVersion);
    mix(path);
    mix(content);
    std::ostringstream hex;
    hex << std::hex << hash;
    return hex.str();
}

void
storeCachedFacts(const std::string &cache_dir, const std::string &key,
                 const FileFacts &facts)
{
    namespace fs = std::filesystem;
    const fs::path final_path = cachePath(cache_dir, key);
    const fs::path temp_path = final_path.string() + ".tmp";
    {
        std::ofstream out(temp_path, std::ios::binary);
        if (!out)
            return; // cache is best-effort; analysis already succeeded
        out << "mindful-analyze-cache " << kCacheVersion << '\n';
        out << "P " << escapeField(facts.path) << '\n';
        for (const FunctionFacts &fn : facts.functions) {
            out << "F " << escapeField(fn.name) << ' ' << fn.line << ' '
                << (fn.shardRoot ? 1 : 0) << ' '
                << escapeField(fn.rootLabel) << ' ' << fn.rootLine
                << ' ' << (fn.rtRoot ? 1 : 0) << ' '
                << (fn.freeFunction ? 1 : 0) << '\n';
            for (const ParamFacts &param : fn.params)
                out << "p " << escapeField(param.name) << ' '
                    << (param.isRng ? 1 : 0) << ' '
                    << (param.mutableRef ? 1 : 0) << '\n';
            for (const Impurity &impurity : fn.impurities)
                out << "i " << escapeField(impurity.kind) << ' '
                    << impurity.line << ' '
                    << escapeField(impurity.detail) << '\n';
            for (const Impurity &blocker : fn.rtBlockers)
                out << "b " << escapeField(blocker.kind) << ' '
                    << blocker.line << ' '
                    << escapeField(blocker.detail) << '\n';
            for (const ViewSite &view : fn.views)
                out << "V " << escapeField(view.view) << ' '
                    << escapeField(view.source) << ' '
                    << escapeField(view.how) << ' ' << view.line << ' '
                    << view.pos << ' ' << view.lastUsePos << ' '
                    << view.lastUseLine << '\n';
            for (const GrowSite &grow : fn.grows)
                out << "G " << escapeField(grow.container) << ' '
                    << escapeField(grow.method) << ' ' << grow.line
                    << ' ' << grow.pos << '\n';
            for (const CallSite &call : fn.calls) {
                out << "c " << escapeField(call.callee) << ' '
                    << call.line << ' ' << call.pos << ' '
                    << (call.member ? 1 : 0) << ' '
                    << call.argIdents.size();
                for (const std::string &arg : call.argIdents)
                    out << ' ' << escapeField(arg);
                out << '\n';
            }
            for (const DrawSite &draw : fn.draws)
                out << "d " << escapeField(draw.engine) << ' '
                    << escapeField(draw.method) << ' ' << draw.line
                    << '\n';
            for (const Hazard &hazard : fn.hazards)
                out << "z " << escapeField(hazard.kind) << ' '
                    << hazard.line << ' ' << escapeField(hazard.detail)
                    << '\n';
            for (const std::string &engine : fn.safeEngines)
                out << "s " << escapeField(engine) << '\n';
        }
        for (const RootRef &ref : facts.rootRefs)
            out << "R " << escapeField(ref.name) << ' ' << ref.line
                << ' ' << escapeField(ref.label) << '\n';
        for (const AtomicDecl &decl : facts.atomicDecls)
            out << "A " << escapeField(decl.name) << ' '
                << escapeField(decl.role) << ' ' << decl.line << '\n';
        for (const AtomicOp &op : facts.atomicOps) {
            out << "O " << escapeField(op.field) << ' '
                << escapeField(op.op) << ' ' << op.line << ' '
                << (op.inCondition ? 1 : 0) << ' '
                << (op.dereferenced ? 1 : 0) << ' '
                << op.orders.size();
            for (const std::string &order : op.orders)
                out << ' ' << escapeField(order);
            out << '\n';
        }
        for (const Finding &finding : facts.expression)
            writeFinding(out, 'X', finding);
        for (const Finding &finding : facts.lexical)
            writeFinding(out, 'L', finding);
        for (const auto &[tag, lines] : facts.analyzeOk)
            for (const auto &[line, reason] : lines)
                out << "M " << escapeField(tag) << ' ' << line << ' '
                    << escapeField(reason) << '\n';
        out << "E\n";
        if (!out)
            return;
    }
    std::error_code ec;
    std::filesystem::rename(temp_path, final_path, ec);
    if (ec)
        std::filesystem::remove(temp_path, ec);
}

bool
loadCachedFacts(const std::string &cache_dir, const std::string &key,
                const std::string &expected_path, FileFacts &facts)
{
    std::ifstream in(cachePath(cache_dir, key), std::ios::binary);
    if (!in)
        return false;

    FileFacts loaded;
    FunctionFacts *fn = nullptr;
    bool saw_header = false;
    bool saw_end = false;
    std::string line;
    while (std::getline(in, line)) {
        if (saw_end)
            return false; // trailing garbage
        if (!saw_header) {
            if (line !=
                std::string("mindful-analyze-cache ") + kCacheVersion)
                return false;
            saw_header = true;
            continue;
        }
        std::vector<std::string> fields = splitFields(line);
        if (fields.empty() || fields[0].size() != 1)
            return false;
        switch (fields[0][0]) {
        case 'P': {
            if (fields.size() != 2)
                return false;
            auto path = unescapeField(fields[1]);
            if (!path || *path != expected_path)
                return false;
            loaded.path = *path;
            break;
        }
        case 'F': {
            if (fields.size() != 8)
                return false;
            auto name = unescapeField(fields[1]);
            auto fn_line = parseSize(fields[2]);
            auto label = unescapeField(fields[4]);
            auto root_line = parseSize(fields[5]);
            if (!name || !fn_line || !label || !root_line ||
                (fields[3] != "0" && fields[3] != "1") ||
                (fields[6] != "0" && fields[6] != "1") ||
                (fields[7] != "0" && fields[7] != "1"))
                return false;
            FunctionFacts next;
            next.name = *name;
            next.line = *fn_line;
            next.shardRoot = fields[3] == "1";
            next.rootLabel = *label;
            next.rootLine = *root_line;
            next.rtRoot = fields[6] == "1";
            next.freeFunction = fields[7] == "1";
            loaded.functions.push_back(std::move(next));
            fn = &loaded.functions.back();
            break;
        }
        case 'p': {
            if (!fn || fields.size() != 4 ||
                (fields[2] != "0" && fields[2] != "1") ||
                (fields[3] != "0" && fields[3] != "1"))
                return false;
            auto name = unescapeField(fields[1]);
            if (!name)
                return false;
            fn->params.push_back(
                {*name, fields[2] == "1", fields[3] == "1"});
            break;
        }
        case 'i': {
            if (!fn || fields.size() != 4)
                return false;
            auto kind = unescapeField(fields[1]);
            auto at = parseSize(fields[2]);
            auto detail = unescapeField(fields[3]);
            if (!kind || !at || !detail)
                return false;
            fn->impurities.push_back({*kind, *at, *detail});
            break;
        }
        case 'c': {
            if (!fn || fields.size() < 6 ||
                (fields[4] != "0" && fields[4] != "1"))
                return false;
            auto callee = unescapeField(fields[1]);
            auto at = parseSize(fields[2]);
            auto pos = parseSize(fields[3]);
            auto n = parseSize(fields[5]);
            if (!callee || !at || !pos || !n ||
                fields.size() != 6 + *n)
                return false;
            CallSite call;
            call.callee = *callee;
            call.line = *at;
            call.pos = *pos;
            call.member = fields[4] == "1";
            for (std::size_t k = 0; k < *n; ++k) {
                auto arg = unescapeField(fields[6 + k]);
                if (!arg)
                    return false;
                call.argIdents.push_back(*arg);
            }
            fn->calls.push_back(std::move(call));
            break;
        }
        case 'b': {
            if (!fn || fields.size() != 4)
                return false;
            auto kind = unescapeField(fields[1]);
            auto at = parseSize(fields[2]);
            auto detail = unescapeField(fields[3]);
            if (!kind || !at || !detail)
                return false;
            fn->rtBlockers.push_back({*kind, *at, *detail});
            break;
        }
        case 'V': {
            if (!fn || fields.size() != 8)
                return false;
            auto view = unescapeField(fields[1]);
            auto source = unescapeField(fields[2]);
            auto how = unescapeField(fields[3]);
            auto at = parseSize(fields[4]);
            auto pos = parseSize(fields[5]);
            auto use_pos = parseSize(fields[6]);
            auto use_line = parseSize(fields[7]);
            if (!view || !source || !how || !at || !pos || !use_pos ||
                !use_line)
                return false;
            fn->views.push_back({*view, *source, *how, *at, *pos,
                                 *use_pos, *use_line});
            break;
        }
        case 'G': {
            if (!fn || fields.size() != 5)
                return false;
            auto container = unescapeField(fields[1]);
            auto method = unescapeField(fields[2]);
            auto at = parseSize(fields[3]);
            auto pos = parseSize(fields[4]);
            if (!container || !method || !at || !pos)
                return false;
            fn->grows.push_back({*container, *method, *at, *pos});
            break;
        }
        case 'd': {
            if (!fn || fields.size() != 4)
                return false;
            auto engine = unescapeField(fields[1]);
            auto method = unescapeField(fields[2]);
            auto at = parseSize(fields[3]);
            if (!engine || !method || !at)
                return false;
            fn->draws.push_back({*engine, *method, *at});
            break;
        }
        case 'z': {
            if (!fn || fields.size() != 4)
                return false;
            auto kind = unescapeField(fields[1]);
            auto at = parseSize(fields[2]);
            auto detail = unescapeField(fields[3]);
            if (!kind || !at || !detail)
                return false;
            fn->hazards.push_back({*kind, *at, *detail});
            break;
        }
        case 's': {
            if (!fn || fields.size() != 2)
                return false;
            auto engine = unescapeField(fields[1]);
            if (!engine)
                return false;
            fn->safeEngines.push_back(*engine);
            break;
        }
        case 'A': {
            if (fields.size() != 4)
                return false;
            auto name = unescapeField(fields[1]);
            auto role = unescapeField(fields[2]);
            auto at = parseSize(fields[3]);
            if (!name || !role || !at)
                return false;
            loaded.atomicDecls.push_back({*name, *role, *at});
            break;
        }
        case 'O': {
            if (fields.size() < 7)
                return false;
            auto field = unescapeField(fields[1]);
            auto op_name = unescapeField(fields[2]);
            auto at = parseSize(fields[3]);
            auto n = parseSize(fields[6]);
            if (!field || !op_name || !at || !n ||
                (fields[4] != "0" && fields[4] != "1") ||
                (fields[5] != "0" && fields[5] != "1") ||
                fields.size() != 7 + *n)
                return false;
            AtomicOp op;
            op.field = *field;
            op.op = *op_name;
            op.line = *at;
            op.inCondition = fields[4] == "1";
            op.dereferenced = fields[5] == "1";
            for (std::size_t k = 0; k < *n; ++k) {
                auto order = unescapeField(fields[7 + k]);
                if (!order)
                    return false;
                op.orders.push_back(*order);
            }
            loaded.atomicOps.push_back(std::move(op));
            break;
        }
        case 'R': {
            if (fields.size() != 4)
                return false;
            auto name = unescapeField(fields[1]);
            auto at = parseSize(fields[2]);
            auto label = unescapeField(fields[3]);
            if (!name || !at || !label)
                return false;
            loaded.rootRefs.push_back({*name, *at, *label});
            break;
        }
        case 'X': {
            Finding finding;
            if (!readFinding(fields, finding))
                return false;
            loaded.expression.push_back(std::move(finding));
            break;
        }
        case 'L': {
            Finding finding;
            if (!readFinding(fields, finding))
                return false;
            loaded.lexical.push_back(std::move(finding));
            break;
        }
        case 'M': {
            if (fields.size() != 4)
                return false;
            auto tag = unescapeField(fields[1]);
            auto at = parseSize(fields[2]);
            auto reason = unescapeField(fields[3]);
            if (!tag || !at || !reason)
                return false;
            loaded.analyzeOk[*tag][*at] = *reason;
            break;
        }
        case 'E':
            if (fields.size() != 1)
                return false;
            saw_end = true;
            break;
        default:
            return false;
        }
    }
    if (!saw_end || loaded.path.empty())
        return false;
    facts = std::move(loaded);
    return true;
}

} // namespace mindful::lint
