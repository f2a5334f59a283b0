/**
 * @file
 * mindful-analyze phases 1 and 2 (see analyze.hh for the contract).
 */

#include "analyze.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "cache.hh"
#include "exec/parallel.hh"
#include "exec/thread_pool.hh"
#include "sarif.hh"

namespace mindful::lint {

namespace {

bool
isIdentTok(const std::string &t)
{
    return !t.empty() &&
           (std::isalpha(static_cast<unsigned char>(t[0])) || t[0] == '_');
}

bool
isNumberTok(const std::string &t)
{
    return !t.empty() && std::isdigit(static_cast<unsigned char>(t[0]));
}

/**
 * Vendor SIMD intrinsics (<immintrin.h>, <arm_neon.h>) are register
 * operations: no allocation, no locks, no I/O. They resolve to no
 * definition the analyzer can see, so without this carve-out every
 * `_mm256_add_ps` would count as an opaque call and poison hot-path
 * purity. `_mm_malloc` / `_mm_free` are NOT intrinsics in this sense —
 * they hit the heap and are reported as alloc impurities instead.
 */
bool
isVendorIntrinsic(const std::string &t)
{
    if (t == "_mm_malloc" || t == "_mm_free")
        return false;
    // x86: _mm_*, _mm256_*, _mm512_* plus helper macros (_MM_SHUFFLE).
    if (t.rfind("_mm", 0) == 0 || t.rfind("_MM_", 0) == 0)
        return true;
    // NEON: v-prefixed names with an element-type suffix (vaddq_f32,
    // vget_low_f32, vdupq_n_u16, ...).
    if (t.size() < 4 || t[0] != 'v')
        return false;
    static const char *const suffixes[] = {
        "_f16", "_f32", "_f64", "_s8",  "_s16", "_s32",
        "_s64", "_u8",  "_u16", "_u32", "_u64",
    };
    for (const char *suffix : suffixes) {
        const std::size_t len = std::char_traits<char>::length(suffix);
        if (t.size() > len && t.compare(t.size() - len, len, suffix) == 0)
            return true;
    }
    return false;
}

/** Words that look like calls but never are (or are vetted pure). */
const std::unordered_set<std::string> &
notCalls()
{
    static const std::unordered_set<std::string> set{
        // control flow / operators-in-disguise
        "if", "for", "while", "switch", "return", "sizeof", "alignof",
        "catch", "throw", "static_cast", "dynamic_cast",
        "reinterpret_cast", "const_cast", "decltype", "noexcept",
        "static_assert", "defined", "alignas", "constexpr",
        // pure std math / utility
        "min", "max", "abs", "fabs", "sqrt", "exp", "log2", "pow",
        "sin", "cos", "tan", "floor", "ceil", "round", "clamp",
        "popcount", "isfinite", "isnan", "swap", "move", "forward",
        "get", "infinity", "lowest", "epsilon", "quiet_NaN",
        // allocation-free container observers
        "size", "empty", "data", "begin", "end", "cbegin", "cend",
        "rbegin", "rend", "front", "back", "at", "count", "find",
        "contains", "c_str", "length", "capacity", "first", "second",
        "value", "has_value", "fill",
        // vetted project infrastructure (asserts/tracing are gated or
        // compiled out; the pool entry points are what we guard)
        "parallelFor", "parallelReduce", "shardRange", "fork",
        "MINDFUL_ASSERT", "MINDFUL_DEBUG_ASSERT", "MINDFUL_TRACE_SPAN",
        "MINDFUL_TRACE_SCOPE",
        // hot-tier record macros (obs/collector.hh, obs/handles.hh):
        // they expand to HotSpan construction / CounterHandle::bump /
        // HistogramHandle::observe, whose bodies the analyzer also
        // sees and certifies lock- and allocation-free
        "MINDFUL_HOT_SPAN", "MINDFUL_HOT_COUNT", "MINDFUL_HOT_RECORD",
    };
    return set;
}

const std::unordered_set<std::string> &
drawMethods()
{
    static const std::unordered_set<std::string> set{
        "gaussian", "uniform", "uniformInt", "bernoulli", "poisson",
        "bits",
    };
    return set;
}

/** Containers whose construction implies heap allocation. */
const std::unordered_set<std::string> &
heapContainers()
{
    static const std::unordered_set<std::string> set{
        "vector",   "map",          "unordered_map", "set",
        "unordered_set", "deque",   "list",          "multimap",
        "multiset", "function",     "string",        "ostringstream",
        "stringstream", "istringstream",
    };
    return set;
}

bool
isStringish(const std::string &name)
{
    return name == "string" || name == "ostringstream" ||
           name == "stringstream" || name == "istringstream";
}

const std::unordered_set<std::string> &
growMethods()
{
    static const std::unordered_set<std::string> set{
        "push_back", "emplace_back", "emplace", "resize", "reserve",
        "insert", "append", "push_front",
    };
    return set;
}

const std::unordered_set<std::string> &
lockTypes()
{
    static const std::unordered_set<std::string> set{
        "LockGuard", "lock_guard", "unique_lock", "scoped_lock",
    };
    return set;
}

/** Words the param-name heuristic must not pick as a name. */
const std::unordered_set<std::string> &
typeWords()
{
    static const std::unordered_set<std::string> set{
        "const", "volatile", "unsigned", "signed", "long", "short",
        "int",   "double",   "float",    "bool",   "char", "void",
        "auto",  "mutable",  "struct",   "class",
    };
    return set;
}

// --- token matchers -------------------------------------------------------

std::size_t
matchForward(const std::vector<Token> &t, std::size_t open,
             const std::string &opener, const std::string &closer)
{
    std::size_t depth = 0;
    for (std::size_t i = open; i < t.size(); ++i) {
        if (t[i].text == opener)
            ++depth;
        else if (t[i].text == closer && --depth == 0)
            return i;
    }
    return t.size();
}

std::size_t
matchParen(const std::vector<Token> &t, std::size_t open)
{
    return matchForward(t, open, "(", ")");
}

std::size_t
matchBrace(const std::vector<Token> &t, std::size_t open)
{
    return matchForward(t, open, "{", "}");
}

std::size_t
matchBracket(const std::vector<Token> &t, std::size_t open)
{
    return matchForward(t, open, "[", "]");
}

/**
 * Best-effort template-argument matcher: from `<` at @p open, return
 * the matching `>` if the span looks like a type-argument list (only
 * idents, numbers, `::`, `,`, `*`, `&`, nested `<>`), else npos.
 */
constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

std::size_t
matchAngle(const std::vector<Token> &t, std::size_t open)
{
    std::size_t depth = 0;
    const std::size_t limit = std::min(t.size(), open + 64);
    for (std::size_t i = open; i < limit; ++i) {
        const std::string &tok = t[i].text;
        if (tok == "<") {
            ++depth;
        } else if (tok == ">") {
            if (--depth == 0)
                return i;
        } else if (isIdentTok(tok) || isNumberTok(tok) || tok == ":" ||
                   tok == "," || tok == "*" || tok == "&") {
            continue;
        } else {
            return kNpos;
        }
    }
    return kNpos;
}

// --- phase 1: the parser --------------------------------------------------

class Parser
{
  public:
    Parser(const SourceFile &source, FileFacts &out)
        : _t(source.tokens), _out(out)
    {
    }

    void
    parseTopLevel()
    {
        parseScope(0, _t.size());
    }

  private:
    const std::vector<Token> &_t;
    FileFacts &_out;

    /** Unordered locals of the body currently being flat-scanned. */
    std::set<std::string> *_unordered = nullptr;

    const std::string &
    tok(std::size_t i) const
    {
        static const std::string empty;
        return i < _t.size() ? _t[i].text : empty;
    }

    /**
     * Namespace/class scope: classify each `{` by its head (the
     * tokens since the previous statement boundary) and either
     * recurse (namespace, class), parse a function body, or skip.
     */
    void
    parseScope(std::size_t begin, std::size_t end)
    {
        std::size_t head = begin;
        std::size_t i = begin;
        while (i < end) {
            const std::string &t = tok(i);
            if (t == ";") {
                head = ++i;
            } else if (t == "{" && i > begin && tok(i - 1) == "=") {
                // Brace initializer (including `= {}` default
                // arguments in declarations), not a scope: skip it and
                // keep reading the same statement.
                i = matchBrace(_t, i) + 1;
            } else if (t == "{") {
                std::size_t close = matchBrace(_t, i);
                classifyBlock(head, i, close);
                i = close + 1;
                head = i;
            } else {
                ++i;
            }
        }
    }

    void
    classifyBlock(std::size_t head, std::size_t open, std::size_t close)
    {
        bool has_namespace = false;
        bool has_class = false;
        bool is_enum = head < open && tok(head) == "enum";
        bool has_paren = false;
        bool has_assign = false;
        for (std::size_t k = head; k < open; ++k) {
            const std::string &t = tok(k);
            if (t == "namespace")
                has_namespace = true;
            else if (t == "class" || t == "struct" || t == "union")
                has_class = true;
            else if (t == "(")
                has_paren = true;
            else if (t == "=" && k > head) {
                // `=` that is part of ==, <=, >=, != or operator= is
                // not an initializer.
                const std::string &p = tok(k - 1);
                if (p != "operator" && p != "=" && p != "<" &&
                    p != ">" && p != "!" && p != "+" && p != "-" &&
                    p != "*" && p != "/")
                    has_assign = true;
            }
        }
        if (has_namespace) {
            parseScope(open + 1, close);
        } else if (is_enum) {
            // opaque
        } else if (has_assign && !has_paren) {
            // brace initializer at namespace/class scope
        } else if (has_paren) {
            parseFunction(head, open, close);
        } else if (has_class) {
            parseScope(open + 1, close);
        }
        // anything else: opaque block
    }

    void
    parseFunction(std::size_t head, std::size_t open, std::size_t close)
    {
        // Name = identifier before the first top-level `(` of the head
        // (`Foo Bar::baz(...)` -> baz; `Foo::Foo(...) : _x(x)` -> Foo).
        std::size_t paren = kNpos;
        for (std::size_t k = head; k < open; ++k) {
            if (tok(k) == "(") {
                paren = k;
                break;
            }
        }
        if (paren == kNpos || paren == head)
            return;
        FunctionFacts fn;
        if (isIdentTok(tok(paren - 1)))
            fn.name = tok(paren - 1);
        fn.line = _t[paren - 1].line;
        parseParams(paren + 1, matchParen(_t, paren), fn.params);
        analyzeBody(fn, open + 1, close);
        _out.functions.push_back(std::move(fn));
    }

    void
    parseParams(std::size_t begin, std::size_t end,
                std::vector<ParamFacts> &params)
    {
        if (begin >= end)
            return;
        std::size_t depth = 0;
        std::size_t start = begin;
        auto flush = [&](std::size_t stop) {
            if (stop <= start)
                return;
            ParamFacts p;
            std::size_t name_stop = stop;
            bool has_const = false;
            bool has_indirection = false;
            for (std::size_t k = start; k < stop; ++k) {
                if (tok(k) == "Rng")
                    p.isRng = true;
                if (tok(k) == "const")
                    has_const = true;
                if (tok(k) == "&" || tok(k) == "*")
                    has_indirection = true;
                if (tok(k) == "=" && name_stop == stop)
                    name_stop = k; // drop default argument
            }
            p.mutableRef = has_indirection && !has_const;
            for (std::size_t k = name_stop; k > start;) {
                --k;
                if (isIdentTok(tok(k)) && !typeWords().count(tok(k))) {
                    p.name = tok(k);
                    break;
                }
            }
            params.push_back(std::move(p));
        };
        for (std::size_t k = begin; k < end; ++k) {
            const std::string &t = tok(k);
            if (t == "(" || t == "[" || t == "{" || t == "<") {
                ++depth;
            } else if (t == ")" || t == "]" || t == "}" || t == ">") {
                if (depth > 0)
                    --depth;
            } else if (t == "," && depth == 0) {
                flush(k);
                start = k + 1;
            }
        }
        flush(end);
    }

    /** A lambda literal starting at `[`; kNpos members on failure. */
    struct Lambda
    {
        std::size_t paramsBegin = kNpos;
        std::size_t paramsEnd = kNpos;
        std::size_t bodyBegin = kNpos;
        std::size_t bodyEnd = kNpos; //!< index of the closing `}`
    };

    Lambda
    parseLambda(std::size_t bracket)
    {
        Lambda lambda;
        std::size_t i = matchBracket(_t, bracket);
        if (i >= _t.size())
            return lambda;
        ++i;
        if (tok(i) == "(") {
            lambda.paramsBegin = i + 1;
            lambda.paramsEnd = matchParen(_t, i);
            i = lambda.paramsEnd + 1;
        }
        while (i < _t.size() && tok(i) != "{" && tok(i) != ";")
            ++i;
        if (tok(i) != "{")
            return Lambda{};
        lambda.bodyBegin = i + 1;
        lambda.bodyEnd = matchBrace(_t, i);
        return lambda;
    }

    /**
     * Function-body analysis: carve out named local lambdas and the
     * lambdas handed to parallelFor/parallelReduce (each becomes its
     * own FunctionFacts), then flat-scan the rest for impurities,
     * calls, draws and fork-derived engines.
     */
    void
    analyzeBody(FunctionFacts &fn, std::size_t begin, std::size_t end)
    {
        // Unordered containers constructed in THIS body; iterating one
        // is a determinism hazard. Function-local by design: member
        // containers and captures are out of scope for the heuristic.
        std::set<std::string> unordered_locals;
        std::set<std::string> *saved_unordered = _unordered;
        _unordered = &unordered_locals;

        std::vector<std::pair<std::size_t, std::size_t>> carved;

        for (std::size_t i = begin; i < end; ++i) {
            const std::string &t = tok(i);
            if (t == "auto" && isIdentTok(tok(i + 1)) &&
                tok(i + 2) == "=" && tok(i + 3) == "[") {
                Lambda lambda = parseLambda(i + 3);
                if (lambda.bodyEnd == kNpos || lambda.bodyEnd > end)
                    continue;
                FunctionFacts local;
                local.name = tok(i + 1);
                local.line = _t[i].line;
                if (lambda.paramsBegin != kNpos)
                    parseParams(lambda.paramsBegin, lambda.paramsEnd,
                                local.params);
                analyzeBody(local, lambda.bodyBegin, lambda.bodyEnd);
                _out.functions.push_back(std::move(local));
                carved.emplace_back(i, lambda.bodyEnd + 1);
                i = lambda.bodyEnd;
            } else if ((t == "parallelFor" || t == "parallelReduce") &&
                       tok(i + 1) == "(") {
                std::size_t close = matchParen(_t, i + 1);
                if (close > end)
                    continue;
                scanParallelArgs(t, _t[i].line, i + 2, close, carved);
                i = i + 1; // keep scanning inside the call (non-lambda
                           // args belong to the enclosing function)
            } else if (t == "MINDFUL_RT_LOOP" && tok(i + 1) == "(") {
                // The parallelFor branch keeps scanning inside the
                // call, so a marker in a shard lambda comes past here
                // twice; the lambda's own analyzeBody carves it.
                bool already_carved = false;
                for (const auto &range : carved)
                    if (i >= range.first && i < range.second)
                        already_carved = true;
                if (already_carved)
                    continue;
                std::size_t mclose = matchParen(_t, i + 1);
                if (mclose >= end)
                    continue;
                std::size_t stop = carveRtLoop(fn, i, mclose, end);
                carved.emplace_back(i, stop + 1);
                i = stop;
            }
        }

        std::sort(carved.begin(), carved.end());
        std::size_t next_carved = 0;
        for (std::size_t i = begin; i < end; ++i) {
            while (next_carved < carved.size() &&
                   carved[next_carved].second <= i)
                ++next_carved;
            if (next_carved < carved.size() &&
                i >= carved[next_carved].first) {
                i = carved[next_carved].second - 1;
                continue;
            }
            scanToken(fn, i);
        }

        // View liveness: the last mention of each view after its
        // binding bounds the window in which growing the source is a
        // finding. Carved lambda bodies count — a captured view is
        // still a use.
        for (ViewSite &view : fn.views) {
            for (std::size_t i = view.pos + 1; i < end; ++i) {
                if (tok(i) == view.view) {
                    view.lastUsePos = i;
                    view.lastUseLine = _t[i].line;
                }
            }
        }

        _unordered = saved_unordered;
    }

    /**
     * Carve the loop following a MINDFUL_RT_LOOP("stage") marker into
     * its own rtRoot FunctionFacts (condition included — calls in the
     * pop condition are on the streaming path too). The enclosing
     * function keeps a synthetic call edge to the carved loop so
     * shard-root hot-path coverage of the loop body is preserved.
     * Returns the last carved token index (the marker's `)` when no
     * loop follows).
     */
    std::size_t
    carveRtLoop(FunctionFacts &fn, std::size_t i, std::size_t mclose,
                std::size_t end)
    {
        std::string stage = "<unnamed>";
        const std::string &arg = tok(i + 2);
        if (mclose == i + 3 && arg.size() >= 2 && arg.front() == '"')
            stage = arg.substr(1, arg.size() - 2);

        FunctionFacts rt;
        rt.name = "<rt:" + stage + "@" + std::to_string(_t[i].line) +
                  ">";
        rt.line = _t[i].line;
        rt.rtRoot = true;
        rt.rootLabel = stage;
        rt.rootLine = _t[i].line;

        std::size_t stop = mclose;
        const std::size_t kw = mclose + 1;
        bool attached = false;
        if ((tok(kw) == "while" || tok(kw) == "for") &&
            tok(kw + 1) == "(") {
            std::size_t cond_close = matchParen(_t, kw + 1);
            std::size_t body_end;
            if (tok(cond_close + 1) == "{") {
                body_end = matchBrace(_t, cond_close + 1);
            } else {
                body_end = cond_close + 1;
                while (body_end < end && tok(body_end) != ";")
                    ++body_end;
            }
            if (body_end < end) {
                analyzeBody(rt, kw, body_end + 1);
                stop = body_end;
                attached = true;
            }
        }
        if (!attached) {
            rt.rtBlockers.push_back(
                {"blocking-call", _t[i].line,
                 "MINDFUL_RT_LOOP(\"" + stage +
                     "\") attaches to no while/for loop; place it "
                     "directly before the loop statement"});
        }

        CallSite link;
        link.callee = rt.name;
        link.line = _t[i].line;
        link.pos = i;
        fn.calls.push_back(std::move(link));
        _out.functions.push_back(std::move(rt));
        return stop;
    }

    void
    scanParallelArgs(const std::string &label, std::size_t call_line,
                     std::size_t begin, std::size_t end,
                     std::vector<std::pair<std::size_t, std::size_t>>
                         &carved)
    {
        std::size_t depth = 0;
        std::size_t arg_start = begin;
        auto handle = [&](std::size_t stop) {
            if (stop == arg_start)
                return;
            if (tok(arg_start) == "[") {
                Lambda lambda = parseLambda(arg_start);
                if (lambda.bodyEnd == kNpos)
                    return;
                FunctionFacts root;
                root.name = "<shard@" +
                            std::to_string(_t[arg_start].line) + ">";
                root.line = _t[arg_start].line;
                root.shardRoot = true;
                root.rootLabel = label;
                root.rootLine = call_line;
                if (lambda.paramsBegin != kNpos)
                    parseParams(lambda.paramsBegin, lambda.paramsEnd,
                                root.params);
                analyzeBody(root, lambda.bodyBegin, lambda.bodyEnd);
                _out.functions.push_back(std::move(root));
                carved.emplace_back(arg_start, lambda.bodyEnd + 1);
            } else if (stop == arg_start + 1 &&
                       isIdentTok(tok(arg_start))) {
                _out.rootRefs.push_back(
                    {tok(arg_start), _t[arg_start].line, label});
            }
        };
        for (std::size_t k = begin; k < end; ++k) {
            const std::string &t = tok(k);
            if (t == "(" || t == "[" || t == "{") {
                ++depth;
            } else if (t == ")" || t == "]" || t == "}") {
                if (depth > 0)
                    --depth;
            } else if (t == "," && depth == 0) {
                handle(k);
                arg_start = k + 1;
            }
        }
        handle(end);
    }

    /** One token of the flat body scan. */
    void
    scanToken(FunctionFacts &fn, std::size_t i)
    {
        const std::string &t = tok(i);
        const std::size_t line = i < _t.size() ? _t[i].line : 0;
        const bool after_dot =
            i > 0 && (tok(i - 1) == "." ||
                      (i > 1 && tok(i - 1) == ">" && tok(i - 2) == "-"));
        const bool before_paren = tok(i + 1) == "(";

        // determinism hazards: wall-clock reads
        if (t == "now" && before_paren && i >= 3 && tok(i - 1) == ":" &&
            tok(i - 2) == ":") {
            const std::string &clock = tok(i - 3);
            if (clock == "steady_clock" || clock == "system_clock" ||
                clock == "high_resolution_clock") {
                fn.hazards.push_back(
                    {"wall-clock", line,
                     "reads std::chrono::" + clock + "::now()"});
                return;
            }
        }
        if ((t == "gettimeofday" || t == "clock_gettime") &&
            before_paren && !after_dot) {
            fn.hazards.push_back(
                {"wall-clock", line, "reads the wall clock via " + t +
                                         "()"});
            return;
        }

        // realtime blockers: unbounded loops with no declared exit
        if (t == "while" && tok(i + 1) == "(") {
            std::size_t close = matchParen(_t, i + 1);
            if (close == i + 3 &&
                (tok(i + 2) == "true" || tok(i + 2) == "1") &&
                !loopHasExit(close + 1)) {
                fn.rtBlockers.push_back(
                    {"unbounded-loop", line,
                     "spins in `while (" + tok(i + 2) +
                         ")` with no break or return"});
            }
            return;
        }

        // determinism hazards: range-for over an unordered container
        // constructed in this body (iteration order is hash-seed and
        // insertion-history dependent).
        if (t == "for" && tok(i + 1) == "(") {
            std::size_t close = matchParen(_t, i + 1);
            if (close == i + 4 && tok(i + 2) == ";" &&
                tok(i + 3) == ";" && !loopHasExit(close + 1)) {
                fn.rtBlockers.push_back(
                    {"unbounded-loop", line,
                     "spins in `for (;;)` with no break or return"});
            }
            std::size_t depth = 0;
            for (std::size_t k = i + 1; k < close; ++k) {
                const std::string &inner = tok(k);
                if (inner == "(" || inner == "[" || inner == "{") {
                    ++depth;
                } else if (inner == ")" || inner == "]" ||
                           inner == "}") {
                    if (depth > 0)
                        --depth;
                } else if (inner == ":" && depth == 1 &&
                           tok(k - 1) != ":" && tok(k + 1) != ":") {
                    if (k + 2 == close && isIdentTok(tok(k + 1)) &&
                        _unordered && _unordered->count(tok(k + 1))) {
                        fn.hazards.push_back(
                            {"unordered-iter", line,
                             "iterates unordered container '" +
                                 tok(k + 1) + "'"});
                    }
                    break;
                }
            }
            return;
        }

        // fork-derived / locally constructed engines
        if (t == "Rng" && isIdentTok(tok(i + 1)) && tok(i - 1) != ":") {
            fn.safeEngines.push_back(tok(i + 1));
            return;
        }
        if (t == "auto" && isIdentTok(tok(i + 1)) && tok(i + 2) == "=" &&
            isIdentTok(tok(i + 3)) && tok(i + 4) == "." &&
            tok(i + 5) == "fork") {
            fn.safeEngines.push_back(tok(i + 1));
            return;
        }

        // draws
        if (after_dot && before_paren && drawMethods().count(t)) {
            std::string engine;
            std::size_t obj = tok(i - 1) == "." ? i - 2 : i - 3;
            if (obj < _t.size() && isIdentTok(tok(obj)))
                engine = tok(obj);
            fn.draws.push_back({engine, t, line});
            return;
        }

        // impurities
        if (t == "new") {
            fn.impurities.push_back({"alloc", line, "heap-allocates "
                                                    "with `new`"});
            return;
        }
        if (t == "make_unique" || t == "make_shared") {
            fn.impurities.push_back(
                {"alloc", line, "heap-allocates via std::" + t});
            return;
        }
        if ((t == "malloc" || t == "calloc" || t == "realloc") &&
            before_paren) {
            fn.impurities.push_back({"alloc", line, "calls " + t + "()"});
            return;
        }
        if ((t == "_mm_malloc" || t == "_mm_free") && before_paren) {
            fn.impurities.push_back({"alloc", line, "calls " + t + "()"});
            return;
        }
        if (after_dot && before_paren && growMethods().count(t)) {
            fn.impurities.push_back(
                {"grow", line, "grows a container via ." + t + "()"});
            std::size_t obj = tok(i - 1) == "." ? i - 2 : i - 3;
            if (obj < _t.size() && isIdentTok(tok(obj)))
                fn.grows.push_back({tok(obj), t, line, i});
            return;
        }
        if (after_dot && before_paren && t == "substr") {
            fn.impurities.push_back(
                {"string", line, "builds a std::string via .substr()"});
            return;
        }
        if (t == "to_string") {
            fn.impurities.push_back(
                {"string", line, "builds a std::string via to_string"});
            return;
        }
        if (lockTypes().count(t)) {
            fn.impurities.push_back({"lock", line, "takes a lock (" + t +
                                                   ")"});
            return;
        }
        if (after_dot && before_paren && t == "lock") {
            fn.impurities.push_back({"lock", line, "takes a lock "
                                                   "(.lock())"});
            return;
        }
        if (t == "MINDFUL_INFORM" || t == "MINDFUL_WARN" ||
            t == "MINDFUL_WARN_ONCE") {
            fn.impurities.push_back({"log", line, "logs via " + t});
            return;
        }
        if ((t == "inform" || t == "warn") && before_paren &&
            !after_dot) {
            fn.impurities.push_back({"log", line, "logs via " + t + "()"});
            return;
        }
        if (after_dot && before_paren &&
            (t == "counter" || t == "gauge" || t == "histogram")) {
            fn.impurities.push_back(
                {"metric-lookup", line,
                 "does a by-name MetricRegistry ." + t + "() lookup"});
            return;
        }
        if (t == "MINDFUL_METRIC_COUNT" || t == "MINDFUL_METRIC_GAUGE" ||
            t == "MINDFUL_METRIC_RECORD") {
            fn.impurities.push_back(
                {"metric-lookup", line,
                 "does a by-name metric lookup via " + t});
            return;
        }

        // realtime blockers: sleeps, condition-variable/future waits,
        // file-stream construction and C file I/O. Recorded for every
        // function; reported only when reachable from an RT root.
        if ((t == "sleep_for" || t == "sleep_until") &&
            before_paren) {
            fn.rtBlockers.push_back(
                {"blocking-call", line,
                 "sleeps via std::this_thread::" + t + "()"});
        }
        if ((t == "usleep" || t == "nanosleep") && before_paren &&
            !after_dot) {
            fn.rtBlockers.push_back(
                {"blocking-call", line, "sleeps via " + t + "()"});
        }
        if (after_dot && before_paren &&
            (t == "wait" || t == "wait_for" || t == "wait_until")) {
            fn.rtBlockers.push_back(
                {"blocking-call", line,
                 "blocks on ." + t +
                     "() (condition variable / future)"});
        }
        if ((t == "ifstream" || t == "ofstream" || t == "fstream") &&
            i > 0 && tok(i - 1) == ":") {
            const std::string &next = tok(i + 1);
            if (isIdentTok(next) || next == "(" || next == "{") {
                fn.rtBlockers.push_back(
                    {"blocking-call", line,
                     "opens a file stream (std::" + t + ")"});
            }
        }
        if ((t == "fopen" || t == "fread" || t == "fwrite" ||
             t == "fclose" || t == "fflush" || t == "popen" ||
             t == "system") &&
            before_paren && !after_dot) {
            fn.rtBlockers.push_back(
                {"blocking-call", line, "calls " + t + "()"});
        }

        // realtime blockers: by-name observability. The trace macros
        // resolve their name under a lock; only the pre-resolved
        // MINDFUL_HOT_* handles are streaming-legal.
        if (t == "MINDFUL_TRACE_SPAN" || t == "MINDFUL_TRACE_SCOPE") {
            fn.rtBlockers.push_back(
                {"by-name", line, "starts a by-name trace span via " + t});
        }

        // view-invalidation bookkeeping: std::move of a named source
        // invalidates any outstanding view of it.
        if (t == "move" && i > 0 && tok(i - 1) == ":" &&
            tok(i + 1) == "(" && isIdentTok(tok(i + 2)) &&
            tok(i + 3) == ")") {
            fn.grows.push_back({tok(i + 2), "move", line, i});
        }

        // view bindings: raw pointer taken off .data()/.rowData()
        // (`auto *p = buf.data();`, `float *row = t.rowData(r);`).
        if (after_dot && before_paren &&
            (t == "data" || t == "rowData")) {
            std::size_t obj = tok(i - 1) == "." ? i - 2 : i - 3;
            if (obj < _t.size() && isIdentTok(tok(obj)) &&
                obj >= 2 && tok(obj - 1) == "=" &&
                isIdentTok(tok(obj - 2))) {
                fn.views.push_back({tok(obj - 2), tok(obj), t, line, i,
                                    i, line});
            }
        }

        // view bindings: std::span / std::string_view declarations.
        if ((t == "span" || t == "string_view") && i > 0 &&
            tok(i - 1) == ":") {
            scanViewDecl(fn, i);
            return;
        }
        // Heap-container type use: the tree always spells these
        // `std::vector` etc., so requiring the qualifier separates
        // the type from same-named locals (`map(shard)`).
        if (heapContainers().count(t) && tok(i - 1) == ":" && i > 0) {
            scanContainerMention(fn, i);
            return;
        }

        // calls — vendor intrinsics are register ops, not calls
        if (isIdentTok(t) && !isVendorIntrinsic(t) &&
            !notCalls().count(t) && !typeWords().count(t)) {
            std::size_t paren = kNpos;
            if (before_paren) {
                paren = i + 1;
            } else if (tok(i + 1) == "<") {
                std::size_t close = matchAngle(_t, i + 1);
                if (close != kNpos && tok(close + 1) == "(")
                    paren = close + 1;
            }
            if (paren != kNpos) {
                CallSite call;
                call.callee = t;
                call.line = line;
                call.pos = i;
                collectArgIdents(paren, call.argIdents);
                fn.calls.push_back(std::move(call));
            }
        }
    }

    /**
     * Whether the loop body starting at @p open (its `{`) contains a
     * break, return, goto or throw — the declared exits that make an
     * unconditional loop bounded. A braceless body has none.
     */
    bool
    loopHasExit(std::size_t open) const
    {
        if (tok(open) != "{")
            return false;
        std::size_t close = matchBrace(_t, open);
        for (std::size_t k = open + 1; k < close && k < _t.size();
             ++k) {
            const std::string &t = tok(k);
            if (t == "break" || t == "return" || t == "goto" ||
                t == "throw")
                return true;
        }
        return false;
    }

    /**
     * A view declaration `std::span<T> v(src, ...)` / `{src}` /
     * `= src`: record which container the view borrows from. A `:`
     * inside the parens means qualified types — a function
     * *declaration's* parameter list, not a borrow — so stay silent.
     */
    void
    scanViewDecl(FunctionFacts &fn, std::size_t i)
    {
        const std::string &how = tok(i);
        std::size_t after = i + 1;
        if (tok(after) == "<") {
            std::size_t close = matchAngle(_t, after);
            if (close == kNpos)
                return;
            after = close + 1;
        }
        if (!isIdentTok(tok(after)) || typeWords().count(tok(after)))
            return;
        const std::string view = tok(after);
        const std::size_t open = after + 1;
        std::string source;
        if (tok(open) == "(" || tok(open) == "{") {
            std::size_t close = tok(open) == "("
                                    ? matchParen(_t, open)
                                    : matchBrace(_t, open);
            for (std::size_t k = open + 1;
                 k < close && k < _t.size(); ++k) {
                const std::string &tk = tok(k);
                if (tk == ":")
                    return;
                if (source.empty() && isIdentTok(tk) &&
                    !typeWords().count(tk)) {
                    const std::string &next = tok(k + 1);
                    if (next == "." || next == "," || next == ")" ||
                        next == "}" || next == "[" || next == "-")
                        source = tk;
                }
            }
        } else if (tok(open) == "=") {
            if (isIdentTok(tok(open + 1)) &&
                !typeWords().count(tok(open + 1)))
                source = tok(open + 1);
        }
        if (source.empty() || source == view)
            return;
        fn.views.push_back(
            {view, source, how, _t[i].line, i, i, _t[i].line});
    }

    /**
     * A container-type mention: `std::vector<T> v`, `std::string s`,
     * `std::function<...> f(...)` construct (heap); `const
     * std::vector<T> &v`, `std::vector<T>::size_type` do not.
     */
    void
    scanContainerMention(FunctionFacts &fn, std::size_t i)
    {
        const std::string &name = tok(i);
        std::size_t after = i + 1;
        std::size_t angle_close = kNpos;
        if (tok(after) == "<") {
            angle_close = matchAngle(_t, after);
            if (angle_close == kNpos)
                return; // comparison or malformed; not a type
            after = angle_close + 1;
        }
        const std::string &next = tok(after);
        const bool constructs =
            isIdentTok(next) || next == "(" || next == "{";
        if (!constructs)
            return;
        // `std::vector<T> foo(...)` where foo is a *type* of a nested
        // declaration is indistinguishable; accept the rare false hit,
        // the escape hatch documents it.
        const char *kind = isStringish(name) ? "string" : "alloc";
        fn.impurities.push_back(
            {kind, _t[i].line, "constructs std::" + name});

        // Determinism bookkeeping for the keyed containers: remember
        // unordered locals (iterating one is a hazard) and flag
        // pointer-valued keys outright — pointer order is allocation
        // order, different every run.
        static const std::unordered_set<std::string> keyed{
            "map",           "set",           "multimap",
            "multiset",      "unordered_map", "unordered_set",
        };
        if (!keyed.count(name))
            return;
        if (name.rfind("unordered_", 0) == 0 && _unordered &&
            isIdentTok(next))
            _unordered->insert(next);
        if (angle_close != kNpos) {
            std::size_t depth = 0;
            for (std::size_t k = i + 1; k < angle_close; ++k) {
                const std::string &inner = tok(k);
                if (inner == "<") {
                    ++depth;
                } else if (inner == ">") {
                    --depth;
                } else if (inner == "," && depth == 1) {
                    break; // key type ends (maps); sets have one arg
                } else if (inner == "*" && depth == 1) {
                    fn.hazards.push_back(
                        {"pointer-key", _t[i].line,
                         "keys a std::" + name + " by pointer"});
                    break;
                }
            }
        }
    }

    void
    collectArgIdents(std::size_t paren,
                     std::vector<std::string> &args)
    {
        std::size_t close = matchParen(_t, paren);
        std::size_t depth = 0;
        std::size_t start = paren + 1;
        auto flush = [&](std::size_t stop) {
            if (stop == start)
                return;
            if (stop == start + 1 && isIdentTok(tok(start)))
                args.push_back(tok(start));
            else
                args.push_back("");
        };
        for (std::size_t k = paren + 1; k < close; ++k) {
            const std::string &t = tok(k);
            if (t == "(" || t == "[" || t == "{") {
                ++depth;
            } else if (t == ")" || t == "]" || t == "}") {
                if (depth > 0)
                    --depth;
            } else if (t == "," && depth == 0) {
                flush(k);
                start = k + 1;
            }
        }
        if (close > paren + 1)
            flush(close);
    }
};

// --- phase 1: unit algebra ------------------------------------------------

const std::unordered_set<std::string> &
unitAccessors()
{
    static const std::unordered_set<std::string> set{
        "inWatts", "inMilliwatts", "inMicrowatts", "inSquareMetres",
        "inSquareCentimetres", "inSquareMillimetres",
        "inSquareMicrometres", "inWattsPerSquareMetre",
        "inMilliwattsPerSquareCentimetre", "inJoules", "inNanojoules",
        "inPicojoules", "inJoulesPerBit", "inPicojoulesPerBit",
        "inHertz", "inKilohertz", "inMegahertz", "inSeconds",
        "inMilliseconds", "inMicroseconds", "inNanoseconds",
        "inBitsPerSecond", "inMegabitsPerSecond", "inMetres",
        "inCentimetres", "inMillimetres", "inMicrometres",
        "inWattsPerMetreKelvin", "inKilogramsPerCubicMetre",
        "inJoulesPerKilogramKelvin", "inKelvin", "inCelsius",
    };
    return set;
}

bool
isPowerDensityAccessor(const std::string &name)
{
    return name == "inWattsPerSquareMetre" ||
           name == "inMilliwattsPerSquareCentimetre";
}

bool
compatibleAccessors(const std::string &a, const std::string &b)
{
    if (a == b)
        return true;
    // TemperatureDelta exposes the same delta in both scales.
    return (a == "inKelvin" && b == "inCelsius") ||
           (a == "inCelsius" && b == "inKelvin");
}

bool
isEnvelopeExempt(const std::string &path)
{
    const std::string p = rulePath(path);
    return p == "thermal/safety.hh" || p == "thermal/safety.cc" ||
           p == "base/units.hh" || p == "base/units.cc";
}

/**
 * Expression-level unit tracking: one slot of (left operand, pending
 * operator) per parenthesis depth. Unknown operands clear the slot,
 * so only provably-mixed expressions are reported.
 */
std::vector<Finding>
unitAlgebraFindings(const SourceFile &src)
{
    std::vector<Finding> findings;
    const std::vector<Token> &t = src.tokens;

    struct Operand
    {
        std::string acc; //!< accessor name; "" = numeric literal
        bool valid = false;
    };
    struct Slot
    {
        Operand left;
        std::string op; //!< "+" (additive) or "<" (comparison); "" none
        bool grouping = false; //!< plain parens (not a call)
    };
    std::vector<Slot> stack(1);

    auto combine = [&](const Operand &rhs, std::size_t line) {
        Slot &slot = stack.back();
        if (slot.left.valid && !slot.op.empty() && rhs.valid) {
            const std::string &a = slot.left.acc;
            const std::string &b = rhs.acc;
            if (!a.empty() && !b.empty() &&
                !compatibleAccessors(a, b)) {
                findings.push_back(
                    {src.path, line, "unit-algebra",
                     "mixes unwrapped ." + a + "() and ." + b +
                         "() across `" + slot.op +
                         "`; quantities of different dimensions or "
                         "scales must be combined as strong types "
                         "(base/units.hh) or through one accessor"});
            } else if (slot.op == "<" &&
                       ((isPowerDensityAccessor(a) && b.empty()) ||
                        (a.empty() && isPowerDensityAccessor(b))) &&
                       !isEnvelopeExempt(src.path)) {
                findings.push_back(
                    {src.path, line, "unit-algebra",
                     "compares a power density against a bare "
                     "numeric literal; route the check through "
                     "thermal::SafetyLimits / PowerBudget "
                     "(src/thermal/safety.hh)"});
            }
        }
        slot.left = rhs;
        slot.op.clear();
    };

    for (std::size_t i = 0; i < t.size(); ++i) {
        const std::string &tk = t[i].text;
        if (tk == "(") {
            Slot slot;
            slot.grouping = i == 0 || !isIdentTok(t[i - 1].text);
            stack.push_back(slot);
        } else if (tk == ")") {
            Operand result;
            if (stack.size() > 1) {
                Slot inner = stack.back();
                stack.pop_back();
                if (inner.grouping && inner.left.valid &&
                    inner.op.empty())
                    result = inner.left;
            }
            if (result.valid)
                combine(result, t[i].line);
            else
                stack.back().left.valid = false;
        } else if (tk == "+" || tk == "-") {
            if (stack.back().left.valid)
                stack.back().op = "+";
        } else if (tk == "<" || tk == ">") {
            if (stack.back().left.valid)
                stack.back().op = "<";
        } else if (tk == "=" || tk == "!") {
            // ==, !=, <=, >= keep the comparison; plain `=` resets.
            if (stack.back().op != "<" &&
                !(i > 0 && (t[i - 1].text == "=" || t[i - 1].text == "!")))
                stack.back() = Slot{.grouping = stack.back().grouping};
            if (tk == "=" && i > 0 &&
                (t[i - 1].text == "=" || t[i - 1].text == "!"))
                stack.back().op = "<";
        } else if (isIdentTok(tk) && unitAccessors().count(tk) &&
                   i > 0 && t[i - 1].text == "." &&
                   i + 2 < t.size() && t[i + 1].text == "(" &&
                   t[i + 2].text == ")") {
            combine({tk, true}, t[i].line);
            i += 2;
        } else if (isNumberTok(tk)) {
            combine({"", true}, t[i].line);
        } else if (tk == "." && i + 1 < t.size() &&
                   unitAccessors().count(t[i + 1].text)) {
            // the object identifier before `.accessor()` — keep slot
        } else if (isIdentTok(tk) && t[i + 1].text == "." &&
                   i + 2 < t.size() &&
                   unitAccessors().count(t[i + 2].text)) {
            // object about to be unwrapped — keep slot
        } else {
            // `,`, `;`, braces, `*`, `/`, `&&`, unknown idents, ...:
            // the expression's unit story is no longer provable.
            stack.back() = Slot{.grouping = stack.back().grouping};
        }
    }

    // The 40 mW/cm^2 safety envelope must come from thermal::safety,
    // never be re-derived from a literal.
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
        const std::string &tk = t[i].text;
        if ((tk == "milliwattsPerSquareCentimetre" ||
             tk == "wattsPerSquareMetre") &&
            t[i + 1].text == "(" && isNumberTok(t[i + 2].text) &&
            !isEnvelopeExempt(src.path)) {
            const std::string &v = t[i + 2].text;
            const bool envelope =
                (tk == "milliwattsPerSquareCentimetre" &&
                 (v == "40.0" || v == "40" || v == "40.")) ||
                (tk == "wattsPerSquareMetre" &&
                 (v == "400.0" || v == "400"));
            if (envelope) {
                findings.push_back(
                    {src.path, t[i].line, "unit-algebra",
                     "re-derives the 40 mW/cm^2 safety envelope from "
                     "a literal; use thermal::SafetyLimits / "
                     "PowerBudget (src/thermal/safety.hh) so the "
                     "limit has one source of truth"});
            }
        }
    }
    return findings;
}

// --- phase 1: atomics extraction ------------------------------------------

/** The std::atomic member functions the discipline pass models. */
const std::unordered_set<std::string> &
atomicOpNames()
{
    static const std::unordered_set<std::string> set{
        "load",      "store",     "exchange",
        "fetch_add", "fetch_sub", "fetch_and",
        "fetch_or",  "fetch_xor", "compare_exchange_weak",
        "compare_exchange_strong",
    };
    return set;
}

/**
 * Flat scan for `std::atomic<...>` declarations (with their pending
 * MINDFUL_ATOMIC_ROLE, if any) and for every load/store/RMW/CAS call
 * spelled on an identifier receiver. Declaration and use sites are
 * joined by field *name* in phase 2, across TUs.
 */
void
scanAtomics(const SourceFile &src, FileFacts &facts)
{
    const std::vector<Token> &t = src.tokens;
    auto tk = [&](std::size_t i) -> const std::string & {
        static const std::string empty;
        return i < t.size() ? t[i].text : empty;
    };

    std::string pending_role;
    std::size_t pending_line = 0;

    // if/while/for/switch paren nesting, for control-flow-use checks.
    std::vector<char> parens;

    for (std::size_t i = 0; i < t.size(); ++i) {
        const std::string &cur = t[i].text;

        if (cur == "(") {
            const std::string &prev = i > 0 ? t[i - 1].text : cur;
            parens.push_back(prev == "if" || prev == "while" ||
                             prev == "for" || prev == "switch");
            continue;
        }
        if (cur == ")") {
            if (!parens.empty())
                parens.pop_back();
            continue;
        }

        if (cur == "MINDFUL_ATOMIC_ROLE" && tk(i + 1) == "(") {
            if (!pending_role.empty()) {
                // previous role never reached a declaration
                facts.atomicDecls.push_back(
                    {"", pending_role, pending_line});
            }
            std::size_t close = matchParen(t, i + 1);
            pending_role = close == i + 3 && isIdentTok(tk(i + 2))
                               ? tk(i + 2)
                               : "<malformed>";
            pending_line = t[i].line;
            continue;
        }

        // `std::atomic<...>` type mention: the declared name is the
        // first identifier after the closing angle (skipping array,
        // pointer and outer-template punctuation, as in
        // `unique_ptr<std::atomic<const Entry *>[]> _slots`).
        if (cur == "atomic" && tk(i - 1) == ":" && i > 0 &&
            tk(i + 1) == "<") {
            std::size_t close = matchAngle(t, i + 1);
            if (close == kNpos)
                continue;
            std::size_t j = close + 1;
            while (tk(j) == "*" || tk(j) == "&" || tk(j) == "[" ||
                   tk(j) == "]" || tk(j) == ">")
                ++j;
            if (isIdentTok(tk(j)) && !typeWords().count(tk(j))) {
                facts.atomicDecls.push_back(
                    {tk(j), pending_role, t[i].line});
                pending_role.clear();
            }
            continue;
        }

        // `<recv>.op(...)` / `<recv>->op(...)`
        if (!atomicOpNames().count(cur) || tk(i + 1) != "(" || i < 2)
            continue;
        const bool arrow = tk(i - 1) == ">" && i >= 3 &&
                           tk(i - 2) == "-";
        if (tk(i - 1) != "." && !arrow)
            continue;
        std::size_t recv = arrow ? i - 3 : i - 2;
        // Walk back over subscripts: `_slots[slot].load` -> `_slots`.
        while (recv < t.size() && tk(recv) == "]") {
            std::size_t depth = 0;
            std::size_t k = recv;
            while (true) {
                if (tk(k) == "]") {
                    ++depth;
                } else if (tk(k) == "[" && --depth == 0) {
                    break;
                }
                if (k == 0)
                    break;
                --k;
            }
            recv = k > 0 ? k - 1 : t.size();
        }
        if (recv >= t.size() || !isIdentTok(tk(recv)))
            continue; // receiver is an expression we cannot name

        AtomicOp op;
        op.field = tk(recv);
        op.op = cur;
        op.line = t[i].line;
        op.inCondition =
            std::find(parens.begin(), parens.end(), 1) != parens.end();

        std::size_t close = matchParen(t, i + 1);
        std::size_t depth = 0;
        for (std::size_t k = i + 1; k <= close && k < t.size(); ++k) {
            const std::string &inner = t[k].text;
            if (inner == "(") {
                ++depth;
            } else if (inner == ")") {
                --depth;
            } else if (depth == 1 &&
                       inner.rfind("memory_order_", 0) == 0) {
                op.orders.push_back(inner);
            }
        }

        // Dereference of the result: `delete recv[..].load(...)`, a
        // `->` chained straight off the call, or a unary `*` in front
        // of the whole receiver chain (`return *b._ptr.load(...)`).
        if (recv > 0 && tk(recv - 1) == "delete")
            op.dereferenced = true;
        if (tk(close + 1) == "-" && tk(close + 2) == ">")
            op.dereferenced = true;
        std::size_t start = recv;
        while (start >= 2 && tk(start - 1) == "." &&
               isIdentTok(tk(start - 2)))
            start -= 2;
        if (start > 0 && tk(start - 1) == "*") {
            const std::string &before =
                start >= 2 ? tk(start - 2) : tk(0);
            if (start == 1 || before == "return" || before == "=" ||
                before == "(" || before == "," || before == ";" ||
                before == "{")
                op.dereferenced = true;
        }

        facts.atomicOps.push_back(std::move(op));
    }

    if (!pending_role.empty())
        facts.atomicDecls.push_back({"", pending_role, pending_line});
}

} // namespace

FileFacts
analyzeFile(const SourceFile &source)
{
    FileFacts facts;
    facts.path = source.path;
    facts.analyzeOk = source.analyzeOk;
    Parser parser(source, facts);
    parser.parseTopLevel();
    facts.expression = unitAlgebraFindings(source);
    facts.lexical = lexicalFindings(source);
    scanAtomics(source, facts);
    return facts;
}

// --- phase 2 --------------------------------------------------------------

namespace {

struct FnKey
{
    std::size_t file = 0;
    std::size_t fn = 0;
    bool
    operator<(const FnKey &o) const
    {
        return file != o.file ? file < o.file : fn < o.fn;
    }
    bool
    operator==(const FnKey &o) const
    {
        return file == o.file && fn == o.fn;
    }
};

/** Tracks which `analyze:` markers suppressed at least one finding. */
class Suppressions
{
  public:
    explicit Suppressions(const std::vector<FileFacts> &files)
        : _files(files)
    {
    }

    /**
     * Whether a finding in @p file at @p line is covered by a
     * `analyze: <tag>(...)` marker on the line or the line above.
     * Marks the marker used.
     */
    bool
    covered(const std::string &tag, std::size_t file_index,
            std::size_t line)
    {
        const auto &tags = _files[file_index].analyzeOk;
        auto tag_it = tags.find(tag);
        if (tag_it == tags.end())
            return false;
        for (std::size_t at : {line, line > 0 ? line - 1 : line}) {
            if (tag_it->second.count(at)) {
                _used.insert({file_index, tag, at});
                return true;
            }
        }
        return false;
    }

    /** Empty-reason and stale-marker findings, in file order. */
    std::vector<Finding>
    police() const
    {
        std::vector<Finding> findings;
        for (std::size_t f = 0; f < _files.size(); ++f) {
            for (const auto &[tag, lines] : _files[f].analyzeOk) {
                for (const auto &[line, reason] : lines) {
                    if (reason.empty()) {
                        findings.push_back(
                            {_files[f].path, line, "suppression",
                             "`analyze: " + tag +
                                 "` marker has an empty reason; "
                                 "explain why this is safe"});
                    } else if (!_used.count({f, tag, line})) {
                        findings.push_back(
                            {_files[f].path, line, "suppression",
                             "stale `analyze: " + tag + "(" + reason +
                                 ")` marker: it suppresses no "
                                 "finding; remove it so the ratchet "
                                 "holds"});
                    }
                }
            }
        }
        return findings;
    }

  private:
    const std::vector<FileFacts> &_files;
    std::set<std::tuple<std::size_t, std::string, std::size_t>> _used;
};

class Linker
{
  public:
    explicit Linker(const std::vector<FileFacts> &files) : _files(files)
    {
        for (std::size_t f = 0; f < files.size(); ++f)
            for (std::size_t k = 0; k < files[f].functions.size(); ++k)
                _byName[files[f].functions[k].name].push_back({f, k});
    }

    /**
     * Conservative resolution: same-file candidates win; otherwise a
     * name defined in exactly one file resolves; a name defined in
     * several files is an overload set we cannot type, so it stays
     * opaque (assumed pure) — every reported path is real.
     */
    std::vector<FnKey>
    resolve(std::size_t from_file, const std::string &name) const
    {
        auto it = _byName.find(name);
        if (it == _byName.end() || name.empty())
            return {};
        std::vector<FnKey> same_file;
        std::set<std::size_t> defining_files;
        for (const FnKey &key : it->second) {
            defining_files.insert(key.file);
            if (key.file == from_file)
                same_file.push_back(key);
        }
        if (!same_file.empty())
            return same_file;
        if (defining_files.size() == 1)
            return it->second;
        return {};
    }

    const FunctionFacts &
    fn(FnKey key) const
    {
        return _files[key.file].functions[key.fn];
    }

  private:
    const std::vector<FileFacts> &_files;
    std::map<std::string, std::vector<FnKey>> _byName;
};

struct Root
{
    FnKey key;
    std::string label;
    std::size_t line = 0; //!< parallelFor/parallelReduce call line
    bool byName = false;  //!< handed by name (lexical check is blind)
};

std::vector<Root>
collectRoots(const std::vector<FileFacts> &files, const Linker &linker)
{
    std::vector<Root> roots;
    for (std::size_t f = 0; f < files.size(); ++f) {
        for (std::size_t k = 0; k < files[f].functions.size(); ++k) {
            const FunctionFacts &fn = files[f].functions[k];
            if (fn.shardRoot)
                roots.push_back({{f, k}, fn.rootLabel, fn.rootLine,
                                 false});
        }
        for (const RootRef &ref : files[f].rootRefs) {
            // by-name roots resolve within their own file only
            for (const FnKey &key : linker.resolve(f, ref.name)) {
                if (key.file == f)
                    roots.push_back({key, ref.label, ref.line, true});
            }
        }
    }
    std::sort(roots.begin(), roots.end(),
              [](const Root &a, const Root &b) {
                  if (!(a.key == b.key))
                      return a.key < b.key;
                  return a.line < b.line;
              });
    roots.erase(std::unique(roots.begin(), roots.end(),
                            [](const Root &a, const Root &b) {
                                return a.key == b.key;
                            }),
                roots.end());
    return roots;
}

/** BFS over resolvable calls; returns visit order with parents. */
struct Reach
{
    std::vector<FnKey> order;
    std::map<FnKey, FnKey> parent;
};

Reach
reachableFrom(FnKey root, const Linker &linker)
{
    Reach reach;
    std::set<FnKey> visited{root};
    reach.order.push_back(root);
    for (std::size_t head = 0; head < reach.order.size(); ++head) {
        FnKey current = reach.order[head];
        for (const CallSite &call : linker.fn(current).calls) {
            for (const FnKey &next :
                 linker.resolve(current.file, call.callee)) {
                if (visited.insert(next).second) {
                    reach.parent[next] = current;
                    reach.order.push_back(next);
                }
            }
        }
    }
    return reach;
}

std::string
callChain(const Reach &reach, FnKey root, FnKey node,
          const Linker &linker,
          const char *root_noun = "in the shard body")
{
    std::vector<std::string> names;
    for (FnKey at = node; !(at == root);) {
        names.push_back(linker.fn(at).name);
        auto it = reach.parent.find(at);
        if (it == reach.parent.end())
            break;
        at = it->second;
    }
    if (names.empty())
        return root_noun;
    std::string chain = "via ";
    for (std::size_t i = names.size(); i > 0; --i) {
        chain += names[i - 1] + "()";
        if (i > 1)
            chain += " -> ";
    }
    return chain;
}

bool
engineIsSafe(const FunctionFacts &fn, const std::string &engine)
{
    return std::find(fn.safeEngines.begin(), fn.safeEngines.end(),
                     engine) != fn.safeEngines.end();
}

/** Param indices a function (transitively) draws from without fork. */
std::map<FnKey, std::set<std::size_t>>
unforkedParamDraws(const std::vector<FileFacts> &files,
                   const Linker &linker)
{
    std::map<FnKey, std::set<std::size_t>> unforked;
    for (std::size_t f = 0; f < files.size(); ++f) {
        for (std::size_t k = 0; k < files[f].functions.size(); ++k) {
            const FunctionFacts &fn = files[f].functions[k];
            for (const DrawSite &draw : fn.draws) {
                if (draw.engine.empty() ||
                    engineIsSafe(fn, draw.engine))
                    continue;
                for (std::size_t p = 0; p < fn.params.size(); ++p)
                    if (fn.params[p].name == draw.engine)
                        unforked[{f, k}].insert(p);
            }
        }
    }
    // Propagate through call argument positions to a fixpoint.
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t f = 0; f < files.size(); ++f) {
            for (std::size_t k = 0; k < files[f].functions.size();
                 ++k) {
                const FunctionFacts &fn = files[f].functions[k];
                for (const CallSite &call : fn.calls) {
                    for (const FnKey &target :
                         linker.resolve(f, call.callee)) {
                        auto it = unforked.find(target);
                        if (it == unforked.end())
                            continue;
                        const FunctionFacts &callee = linker.fn(target);
                        for (std::size_t j = 0;
                             j < call.argIdents.size() &&
                             j < callee.params.size();
                             ++j) {
                            if (!it->second.count(j) ||
                                call.argIdents[j].empty() ||
                                engineIsSafe(fn, call.argIdents[j]))
                                continue;
                            for (std::size_t p = 0;
                                 p < fn.params.size(); ++p) {
                                if (fn.params[p].name ==
                                        call.argIdents[j] &&
                                    unforked[{f, k}].insert(p).second)
                                    changed = true;
                            }
                        }
                    }
                }
            }
        }
    }
    return unforked;
}

/**
 * Param indices a function (transitively) grows, with the growth
 * method for reporting. Only mutable-reference/pointer parameters
 * count — growing a by-value copy cannot invalidate the caller's
 * views. Mirrors unforkedParamDraws: direct GrowSites seed the map,
 * then call-argument positions propagate it to a fixpoint.
 */
std::map<FnKey, std::map<std::size_t, std::string>>
growingParams(const std::vector<FileFacts> &files, const Linker &linker)
{
    std::map<FnKey, std::map<std::size_t, std::string>> growing;
    for (std::size_t f = 0; f < files.size(); ++f) {
        for (std::size_t k = 0; k < files[f].functions.size(); ++k) {
            const FunctionFacts &fn = files[f].functions[k];
            for (const GrowSite &grow : fn.grows) {
                for (std::size_t p = 0; p < fn.params.size(); ++p) {
                    if (fn.params[p].name == grow.container &&
                        fn.params[p].mutableRef)
                        growing[{f, k}].insert({p, grow.method});
                }
            }
        }
    }
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t f = 0; f < files.size(); ++f) {
            for (std::size_t k = 0; k < files[f].functions.size();
                 ++k) {
                const FunctionFacts &fn = files[f].functions[k];
                for (const CallSite &call : fn.calls) {
                    for (const FnKey &target :
                         linker.resolve(f, call.callee)) {
                        auto it = growing.find(target);
                        if (it == growing.end() ||
                            target == FnKey{f, k})
                            continue;
                        for (const auto &[j, method] : it->second) {
                            if (j >= call.argIdents.size() ||
                                call.argIdents[j].empty())
                                continue;
                            for (std::size_t p = 0;
                                 p < fn.params.size(); ++p) {
                                if (fn.params[p].name ==
                                        call.argIdents[j] &&
                                    fn.params[p].mutableRef &&
                                    growing[{f, k}]
                                        .insert({p, method})
                                        .second)
                                    changed = true;
                            }
                        }
                    }
                }
            }
        }
    }
    return growing;
}

// --- atomics-discipline ---------------------------------------------------

/** The declared-role vocabulary (base/compiler.hh). */
const std::set<std::string> &
atomicRoles()
{
    static const std::set<std::string> set{
        "publish_ptr", "spsc_head",  "spsc_tail",
        "stat_counter", "once_flag", "seqlock",
    };
    return set;
}

bool
orderIn(const std::vector<std::string> &orders,
        std::initializer_list<const char *> allowed)
{
    if (orders.empty())
        return false;
    for (const char *a : allowed)
        if (orders.front() == a)
            return true;
    return false;
}

/** "load", "store", "rmw" or "cas". */
std::string
opKind(const std::string &op)
{
    if (op == "load" || op == "store")
        return op;
    if (op == "compare_exchange_weak" ||
        op == "compare_exchange_strong")
        return "cas";
    return "rmw";
}

/**
 * The per-role memory-order rules over every (declaration, operation)
 * joined by field name across TUs. Conservative by construction: an
 * operation whose receiver never resolves to a declared atomic is
 * ignored (same-named locals, non-atomic `.load()` APIs), so every
 * finding names a field the tree really declared atomic.
 */
std::vector<Finding>
atomicsDisciplineFindings(const std::vector<FileFacts> &files,
                          Suppressions &suppressions)
{
    std::vector<Finding> findings;
    auto emit = [&](std::size_t f, std::size_t line,
                    const std::string &message) {
        if (!suppressions.covered("atomic-ok", f, line))
            findings.push_back(
                {files[f].path, line, "atomics-discipline", message});
    };

    // Field name -> declared role (first declaration wins; a
    // conflicting later declaration is itself a finding).
    struct RoleSite
    {
        std::string role;
        std::size_t file = 0;
        std::size_t line = 0;
    };
    std::map<std::string, RoleSite> roles;

    for (std::size_t f = 0; f < files.size(); ++f) {
        for (const AtomicDecl &decl : files[f].atomicDecls) {
            if (decl.name.empty()) {
                emit(f, decl.line,
                     "MINDFUL_ATOMIC_ROLE(" + decl.role +
                         ") attaches to no std::atomic declaration; "
                         "place it directly before the field");
                continue;
            }
            if (decl.role.empty()) {
                emit(f, decl.line,
                     "std::atomic field '" + decl.name +
                         "' declares no publication protocol; "
                         "annotate MINDFUL_ATOMIC_ROLE(publish_ptr | "
                         "spsc_head | spsc_tail | stat_counter | "
                         "once_flag | seqlock) (base/compiler.hh)");
                continue;
            }
            if (!atomicRoles().count(decl.role)) {
                emit(f, decl.line,
                     "unknown atomic role '" + decl.role +
                         "' on field '" + decl.name +
                         "'; the vocabulary is publish_ptr, "
                         "spsc_head, spsc_tail, stat_counter, "
                         "once_flag, seqlock (base/compiler.hh)");
                continue;
            }
            auto [it, inserted] =
                roles.insert({decl.name, {decl.role, f, decl.line}});
            if (!inserted && it->second.role != decl.role) {
                emit(f, decl.line,
                     "conflicting role '" + decl.role +
                         "' for atomic '" + decl.name +
                         "'; first declared " + it->second.role +
                         " at " + files[it->second.file].path + ":" +
                         std::to_string(it->second.line));
            }
        }
    }

    // Aggregate store/load sites per spsc index for the whole-program
    // single-writer and pairing rules.
    struct SpscAgg
    {
        std::vector<std::pair<std::size_t, std::size_t>> storeSites;
        bool hasLoad = false;
        bool hasAcquireLoad = false;
    };
    std::map<std::string, SpscAgg> spsc;

    for (std::size_t f = 0; f < files.size(); ++f) {
        for (const AtomicOp &op : files[f].atomicOps) {
            for (const std::string &order : op.orders) {
                if (order == "memory_order_consume") {
                    emit(f, op.line,
                         "memory_order_consume on '" + op.field +
                             "': consume is unimplementable and "
                             "deprecated; use memory_order_acquire");
                }
            }

            auto rit = roles.find(op.field);
            if (rit == roles.end())
                continue; // not a declared atomic we track
            const std::string &role = rit->second.role;
            const std::string kind = opKind(op.op);

            if (op.orders.empty()) {
                emit(f, op.line,
                     "." + op.op + "() on '" + op.field + "' (" +
                         role + ") defaults to seq_cst by omission; "
                         "state the memory order the protocol needs "
                         "explicitly");
                continue;
            }

            if (role == "spsc_head" || role == "spsc_tail") {
                SpscAgg &agg = spsc[op.field];
                if (kind == "store") {
                    agg.storeSites.push_back({f, op.line});
                } else if (kind == "load") {
                    agg.hasLoad = true;
                    if (orderIn(op.orders, {"memory_order_acquire",
                                            "memory_order_seq_cst"}))
                        agg.hasAcquireLoad = true;
                }
            }

            if (role == "publish_ptr") {
                if (kind == "store" &&
                    !orderIn(op.orders, {"memory_order_release",
                                         "memory_order_seq_cst"})) {
                    emit(f, op.line,
                         "store to publish_ptr '" + op.field +
                             "' needs memory_order_release so the "
                             "pointee is initialized before the "
                             "pointer is visible");
                } else if (kind == "load") {
                    const bool relaxed = orderIn(
                        op.orders, {"memory_order_relaxed"});
                    if (relaxed && op.dereferenced) {
                        emit(f, op.line,
                             "dereferences a relaxed load of "
                             "publish_ptr '" + op.field +
                                 "'; nothing orders the pointee's "
                                 "initialization before this read — "
                                 "load with memory_order_acquire");
                    } else if (!relaxed &&
                               !orderIn(op.orders,
                                        {"memory_order_acquire",
                                         "memory_order_seq_cst"})) {
                        emit(f, op.line,
                             "load of publish_ptr '" + op.field +
                                 "' must be acquire (or relaxed for "
                                 "a pure null-check)");
                    }
                } else if (kind == "rmw") {
                    emit(f, op.line,
                         "read-modify-write on publish_ptr '" +
                             op.field + "'; publication is "
                             "CAS-from-null, not arithmetic");
                } else if (kind == "cas" &&
                           !orderIn(op.orders,
                                    {"memory_order_release",
                                     "memory_order_acq_rel",
                                     "memory_order_seq_cst"})) {
                    emit(f, op.line,
                         "publishing CAS on '" + op.field +
                             "' needs a release success order so "
                             "the pointee is visible to acquire "
                             "loaders");
                }
            } else if (role == "spsc_head" || role == "spsc_tail") {
                if (kind == "store" &&
                    !orderIn(op.orders, {"memory_order_release",
                                         "memory_order_seq_cst"})) {
                    emit(f, op.line,
                         "store to " + role + " '" + op.field +
                             "' must be release: the index store is "
                             "what publishes the slot payload to the "
                             "other side of the ring");
                } else if (kind == "load" &&
                           !orderIn(op.orders,
                                    {"memory_order_relaxed",
                                     "memory_order_acquire",
                                     "memory_order_seq_cst"})) {
                    emit(f, op.line,
                         "load of " + role + " '" + op.field +
                             "' must be relaxed (own index) or "
                             "acquire (the other side's index)");
                } else if (kind == "rmw" || kind == "cas") {
                    emit(f, op.line,
                         "read-modify-write on single-writer index '" +
                             op.field + "' (" + role +
                             "); only its one producer may advance "
                             "it, with a plain release store");
                }
            } else if (role == "stat_counter") {
                if (!orderIn(op.orders, {"memory_order_relaxed"})) {
                    emit(f, op.line,
                         "." + op.op + "() on stat_counter '" +
                             op.field +
                             "' uses an ordering stronger than "
                             "relaxed; counters synchronize nothing "
                             "— if this cell gates anything, its "
                             "role is wrong, not the order");
                }
                if (kind == "load" && op.inCondition) {
                    emit(f, op.line,
                         "control flow branches on stat_counter '" +
                             op.field +
                             "'; counters are telemetry — a cell "
                             "that gates behaviour needs once_flag "
                             "or a real protocol role");
                }
            } else if (role == "once_flag") {
                if (kind == "store" &&
                    !orderIn(op.orders, {"memory_order_relaxed",
                                         "memory_order_release",
                                         "memory_order_seq_cst"})) {
                    emit(f, op.line,
                         "store to once_flag '" + op.field +
                             "' must be relaxed (standalone gate) or "
                             "release (publishes prior writes)");
                } else if (kind == "load" &&
                           !orderIn(op.orders,
                                    {"memory_order_relaxed",
                                     "memory_order_acquire",
                                     "memory_order_seq_cst"})) {
                    emit(f, op.line,
                         "load of once_flag '" + op.field +
                             "' must be relaxed or acquire");
                } else if (kind == "rmw" && op.op != "exchange") {
                    emit(f, op.line,
                         "." + op.op + "() on once_flag '" +
                             op.field +
                             "'; a flag is not a counter — set it "
                             "with store/exchange/CAS");
                }
            } else if (role == "seqlock") {
                if (kind == "load" &&
                    !orderIn(op.orders, {"memory_order_acquire",
                                         "memory_order_seq_cst"})) {
                    emit(f, op.line,
                         "seqlock sequence load of '" + op.field +
                             "' must be acquire");
                } else if (kind == "store" &&
                           !orderIn(op.orders,
                                    {"memory_order_release",
                                     "memory_order_seq_cst"})) {
                    emit(f, op.line,
                         "seqlock sequence store to '" + op.field +
                             "' must be release");
                } else if ((kind == "rmw" || kind == "cas") &&
                           !orderIn(op.orders,
                                    {"memory_order_release",
                                     "memory_order_acq_rel",
                                     "memory_order_seq_cst"})) {
                    emit(f, op.line,
                         "seqlock sequence bump on '" + op.field +
                             "' must publish (release or acq_rel)");
                }
            }
        }
    }

    // Whole-program spsc aggregates: one producer, paired handoff.
    for (const auto &[field, agg] : spsc) {
        std::set<std::pair<std::size_t, std::size_t>> sites(
            agg.storeSites.begin(), agg.storeSites.end());
        if (sites.size() > 1) {
            auto it = sites.begin();
            const auto first = *it;
            for (++it; it != sites.end(); ++it) {
                emit(it->first, it->second,
                     "second writer site for single-writer index '" +
                         field + "' (first writes at " +
                         files[first.first].path + ":" +
                         std::to_string(first.second) +
                         "); SPSC rings have exactly one producer "
                         "per index");
            }
        }
        if (!sites.empty() && agg.hasLoad && !agg.hasAcquireLoad) {
            emit(sites.begin()->first, sites.begin()->second,
                 "release stores to '" + field +
                     "' are never observed by an acquire load; the "
                     "consuming side must load-acquire to complete "
                     "the handoff");
        }
    }

    return findings;
}

} // namespace

std::vector<Finding>
semanticFindings(const std::vector<FileFacts> &files)
{
    Linker linker(files);
    Suppressions suppressions(files);
    std::vector<Finding> findings;

    // unit-algebra (phase-1 expression findings + unit-ok hatch)
    for (std::size_t f = 0; f < files.size(); ++f) {
        for (const Finding &finding : files[f].expression) {
            if (!suppressions.covered("unit-ok", f, finding.line))
                findings.push_back(finding);
        }
    }

    const std::vector<Root> roots = collectRoots(files, linker);
    const auto unforked = unforkedParamDraws(files, linker);

    // hot-path purity + rng-flow, one BFS per shard root
    std::set<std::tuple<std::string, std::size_t, std::string>> seen;
    for (const Root &root : roots) {
        const FunctionFacts &root_fn = linker.fn(root.key);
        Reach reach = reachableFrom(root.key, linker);
        const std::string context =
            "the " + root.label + " shard body '" + root_fn.name +
            "' at " + files[root.key.file].path + ":" +
            std::to_string(root.line);

        for (const FnKey &node : reach.order) {
            const FunctionFacts &fn = linker.fn(node);
            for (const Hazard &hazard : fn.hazards) {
                if (suppressions.covered("determinism-ok", node.file,
                                         hazard.line) ||
                    suppressions.covered("determinism-ok",
                                         root.key.file, root.line))
                    continue;
                std::tuple<std::string, std::size_t, std::string> key{
                    files[node.file].path, hazard.line,
                    "hazard:" + hazard.detail};
                if (!seen.insert(key).second)
                    continue;
                findings.push_back(
                    {files[node.file].path, hazard.line,
                     "determinism-flow",
                     hazard.detail + " (" +
                         callChain(reach, root.key, node, linker) +
                         ") inside " + context +
                         "; shard outputs are byte-identical by "
                         "contract — hash order, pointer order and "
                         "clocks must not influence them "
                         "(docs/parallelism.md); annotate `// "
                         "analyze: determinism-ok(<reason>)` if "
                         "intended"});
            }
            for (const Impurity &impurity : fn.impurities) {
                if (suppressions.covered("hot-ok", node.file,
                                         impurity.line) ||
                    suppressions.covered("hot-ok", root.key.file,
                                         root.line))
                    continue;
                std::tuple<std::string, std::size_t, std::string> key{
                    files[node.file].path, impurity.line,
                    impurity.detail};
                if (!seen.insert(key).second)
                    continue;
                findings.push_back(
                    {files[node.file].path, impurity.line, "hot-path",
                     impurity.detail + " (" +
                         callChain(reach, root.key, node, linker) +
                         ") inside " + context +
                         "; shard code must stay allocation-, lock-, "
                         "log- and metric-lookup-free "
                         "(docs/parallelism.md); annotate `// "
                         "analyze: hot-ok(<reason>)` if intended"});
            }
        }

        // rng-flow (a): unforked draws inside a by-name root — the
        // lexical rng-discipline check cannot see these.
        if (root.byName) {
            for (const DrawSite &draw : root_fn.draws) {
                if (draw.engine.empty() ||
                    engineIsSafe(root_fn, draw.engine))
                    continue;
                if (suppressions.covered("rng-ok", root.key.file,
                                         draw.line) ||
                    suppressions.covered("rng-ok", root.key.file,
                                         root.line))
                    continue;
                std::tuple<std::string, std::size_t, std::string> key{
                    files[root.key.file].path, draw.line,
                    "draw:" + draw.engine};
                if (!seen.insert(key).second)
                    continue;
                findings.push_back(
                    {files[root.key.file].path, draw.line, "rng-flow",
                     "draws (." + draw.method + "()) from engine '" +
                         draw.engine +
                         "' that is not derived via Rng::fork(stream) "
                         "inside " + context +
                         "; sharing one engine across shards breaks "
                         "determinism (docs/parallelism.md)"});
            }
        }

        // rng-flow (b): the root hands a shared engine to a helper
        // that (transitively) draws from it without forking.
        for (const CallSite &call : root_fn.calls) {
            for (const FnKey &target :
                 linker.resolve(root.key.file, call.callee)) {
                auto it = unforked.find(target);
                if (it == unforked.end())
                    continue;
                const FunctionFacts &callee = linker.fn(target);
                for (std::size_t j = 0; j < call.argIdents.size() &&
                                        j < callee.params.size();
                     ++j) {
                    const std::string &engine = call.argIdents[j];
                    if (!it->second.count(j) || engine.empty() ||
                        !callee.params[j].isRng ||
                        engineIsSafe(root_fn, engine))
                        continue;
                    if (suppressions.covered("rng-ok", root.key.file,
                                             call.line) ||
                        suppressions.covered("rng-ok", root.key.file,
                                             root.line))
                        continue;
                    std::tuple<std::string, std::size_t, std::string>
                        key{files[root.key.file].path, call.line,
                            "flow:" + engine + ":" + call.callee};
                    if (!seen.insert(key).second)
                        continue;
                    findings.push_back(
                        {files[root.key.file].path, call.line,
                         "rng-flow",
                         "passes engine '" + engine + "' to " +
                             call.callee +
                             "(), which draws from it without "
                             "Rng::fork, inside " + context +
                             "; fork a sub-stream per shard instead "
                             "(docs/parallelism.md)"});
                }
            }
        }
    }

    // realtime-loop: one BFS per MINDFUL_RT_LOOP streaming root.
    // Locks, logging and by-name metric lookups are already tracked
    // as impurities; sleeps, waits, file I/O, unbounded loops and
    // by-name tracing arrive as rtBlockers.
    for (std::size_t f = 0; f < files.size(); ++f) {
        for (std::size_t k = 0; k < files[f].functions.size(); ++k) {
            const FunctionFacts &root_fn = files[f].functions[k];
            if (!root_fn.rtRoot)
                continue;
            const FnKey root_key{f, k};
            Reach reach = reachableFrom(root_key, linker);
            const std::string context =
                "the MINDFUL_RT_LOOP(\"" + root_fn.rootLabel +
                "\") streaming loop at " + files[f].path + ":" +
                std::to_string(root_fn.rootLine);
            for (const FnKey &node : reach.order) {
                const FunctionFacts &fn = linker.fn(node);
                auto report = [&](const std::string &kind,
                                  std::size_t line,
                                  const std::string &detail) {
                    if (suppressions.covered("rt-ok", node.file,
                                             line) ||
                        suppressions.covered("rt-ok", f,
                                             root_fn.rootLine))
                        return;
                    std::tuple<std::string, std::size_t, std::string>
                        key{files[node.file].path, line,
                            "rt:" + detail};
                    if (!seen.insert(key).second)
                        return;
                    const std::string tail =
                        kind == "by-name"
                            ? "; by-name observability resolves its "
                              "name under a lock — pre-resolve a "
                              "MINDFUL_HOT_* handle at setup time "
                              "(docs/static_analysis.md)"
                            : "; nothing blocking may run on a "
                              "streaming stage path "
                              "(docs/static_analysis.md)";
                    findings.push_back(
                        {files[node.file].path, line, "realtime-loop",
                         detail + " (" +
                             callChain(reach, root_key, node, linker,
                                       "in the loop body") +
                             ") inside " + context + tail +
                             "; annotate `// analyze: rt-ok(<reason>)`"
                             " if intended"});
                };
                for (const Impurity &blocker : fn.rtBlockers)
                    report(blocker.kind, blocker.line, blocker.detail);
                for (const Impurity &impurity : fn.impurities) {
                    if (impurity.kind == "lock" ||
                        impurity.kind == "log")
                        report("blocking-call", impurity.line,
                               impurity.detail);
                    else if (impurity.kind == "metric-lookup")
                        report("by-name", impurity.line,
                               impurity.detail);
                }
            }
        }
    }

    // view-invalidation: a growth of a view's source between the
    // binding and the view's last use — directly (same function) or
    // through a callee that grows a mutable-reference parameter.
    const auto growing = growingParams(files, linker);
    for (std::size_t f = 0; f < files.size(); ++f) {
        for (std::size_t k = 0; k < files[f].functions.size(); ++k) {
            const FunctionFacts &fn = files[f].functions[k];
            for (const ViewSite &view : fn.views) {
                auto live_detail = [&] {
                    return "view '" + view.view + "' (." + view.how +
                           " of '" + view.source + "' taken at line " +
                           std::to_string(view.line) +
                           ") is still live (last used at line " +
                           std::to_string(view.lastUseLine) + ")";
                };
                for (const GrowSite &grow : fn.grows) {
                    if (grow.container != view.source ||
                        grow.pos <= view.pos ||
                        grow.pos >= view.lastUsePos)
                        continue;
                    if (suppressions.covered("view-ok", f,
                                             grow.line) ||
                        suppressions.covered("view-ok", f, view.line))
                        continue;
                    const std::string act =
                        grow.method == "move"
                            ? "std::move('" + view.source + "')"
                            : "'" + view.source + "'." + grow.method +
                                  "()";
                    std::tuple<std::string, std::size_t, std::string>
                        key{files[f].path, grow.line,
                            "view:" + view.view + ":" + act};
                    if (!seen.insert(key).second)
                        continue;
                    findings.push_back(
                        {files[f].path, grow.line, "view-invalidation",
                         act + " may reallocate while " +
                             live_detail() +
                             "; growth invalidates outstanding views "
                             "(view-after-growth) — rebind after "
                             "growing or reserve capacity before the "
                             "view; annotate `// analyze: "
                             "view-ok(<reason>)` if intended"});
                }
                for (const CallSite &call : fn.calls) {
                    if (call.pos <= view.pos ||
                        call.pos >= view.lastUsePos)
                        continue;
                    for (const FnKey &target :
                         linker.resolve(f, call.callee)) {
                        auto it = growing.find(target);
                        if (it == growing.end())
                            continue;
                        const FunctionFacts &callee =
                            linker.fn(target);
                        for (const auto &[j, method] : it->second) {
                            if (j >= call.argIdents.size() ||
                                call.argIdents[j] != view.source)
                                continue;
                            if (suppressions.covered("view-ok", f,
                                                     call.line) ||
                                suppressions.covered("view-ok", f,
                                                     view.line))
                                continue;
                            const std::string param =
                                j < callee.params.size()
                                    ? callee.params[j].name
                                    : "";
                            std::tuple<std::string, std::size_t,
                                       std::string>
                                key{files[f].path, call.line,
                                    "view:" + view.view + ":" +
                                        call.callee};
                            if (!seen.insert(key).second)
                                continue;
                            findings.push_back(
                                {files[f].path, call.line,
                                 "view-invalidation",
                                 "passes '" + view.source + "' to " +
                                     call.callee + "(), which grows "
                                     "it (." + method +
                                     "() on parameter '" + param +
                                     "'), while " + live_detail() +
                                     "; the view escapes its source's "
                                     "stability window "
                                     "(view-escape-by-arg); annotate "
                                     "`// analyze: view-ok(<reason>)` "
                                     "if intended"});
                        }
                    }
                }
            }
        }
    }

    auto atomics = atomicsDisciplineFindings(files, suppressions);
    findings.insert(findings.end(), atomics.begin(), atomics.end());

    auto policed = suppressions.police();
    findings.insert(findings.end(), policed.begin(), policed.end());
    return findings;
}

// --- driver ---------------------------------------------------------------

int
runAnalyze(const AnalyzeOptions &options, std::ostream &out,
           std::ostream &err)
{
    namespace fs = std::filesystem;

    if (options.threads > 0)
        exec::ThreadPool::setGlobalThreadCount(options.threads);

    std::vector<RootSpec> roots = options.roots;
    if (roots.empty() && !options.root.empty())
        roots.push_back({options.root, ""});
    if (roots.empty()) {
        err << "mindful-analyze: no scan root given\n";
        return 2;
    }

    // One flat work list over every root, in root order then sorted
    // relative-path order — deterministic regardless of walk order.
    struct SourceRef
    {
        std::string dir;  //!< root directory the file lives under
        std::string rel;  //!< path relative to that root
        std::string path; //!< as recorded in findings (label-prefixed)
    };
    std::vector<SourceRef> files;
    for (const RootSpec &root : roots) {
        std::string walk_error;
        std::vector<std::string> rel_files =
            collectSources(root.dir, walk_error);
        if (!walk_error.empty()) {
            err << root.dir << ": " << walk_error << "\n";
            return 2;
        }
        for (std::string &rel : rel_files) {
            std::string recorded =
                root.label.empty() ? rel : root.label + "/" + rel;
            files.push_back(
                {root.dir, std::move(rel), std::move(recorded)});
        }
    }

    if (!options.cacheDir.empty()) {
        std::error_code ec;
        fs::create_directories(options.cacheDir, ec);
        if (ec) {
            err << options.cacheDir
                << ": cannot create cache directory: " << ec.message()
                << "\n";
            return 2;
        }
    }

    std::vector<FileFacts> facts(files.size());
    std::vector<std::string> contents(files.size());
    std::vector<std::string> errors(files.size());
    auto parse_one = [&](std::size_t i) {
        std::ifstream in(fs::path(files[i].dir) / files[i].rel,
                         std::ios::binary);
        if (!in) {
            errors[i] = "cannot read file";
            return;
        }
        std::ostringstream buffer;
        buffer << in.rdbuf();
        contents[i] = buffer.str();
        const std::string &content = contents[i];
        const std::string key = factsCacheKey(files[i].path, content);
        if (!options.cacheDir.empty() &&
            loadCachedFacts(options.cacheDir, key, files[i].path,
                            facts[i]))
            return;
        facts[i] = analyzeFile(scanSource(files[i].path, content));
        if (!options.cacheDir.empty())
            storeCachedFacts(options.cacheDir, key, facts[i]);
    };
    // One task per TU on the pool we analyze; every result lands in
    // its own index slot, so assembly order is file order regardless
    // of scheduling.
    if (files.size() > 1)
        // analyze: hot-ok(parse fan-out is setup I/O, not a kernel)
        exec::parallelFor(files.size(), parse_one, "analyze.parse");
    else if (files.size() == 1)
        parse_one(0);

    for (std::size_t i = 0; i < files.size(); ++i) {
        if (!errors[i].empty()) {
            err << files[i].path << ": " << errors[i] << "\n";
            return 2;
        }
    }

    std::vector<Finding> findings;
    for (const FileFacts &file : facts)
        findings.insert(findings.end(), file.lexical.begin(),
                        file.lexical.end());

    if (!options.allowlistPath.empty()) {
        std::ifstream in(options.allowlistPath);
        if (!in) {
            err << options.allowlistPath << ": cannot read allowlist\n";
            return 2;
        }
        std::ostringstream buffer;
        buffer << in.rdbuf();
        auto entries = parseAllowlist(buffer.str(),
                                      options.allowlistPath, findings);
        findings = applyAllowlist(std::move(findings), entries,
                                  options.allowlistPath);
    }

    if (options.semantic) {
        auto semantic = semanticFindings(facts);
        findings.insert(findings.end(), semantic.begin(),
                        semantic.end());
    }

    std::sort(findings.begin(), findings.end(), findingLess);

    // Ratchet baseline: a key is line-number-free so unrelated edits
    // above a finding do not churn it out of the baseline.
    auto baselineKey = [](const Finding &finding) {
        return finding.file + " [" + finding.check + "] " +
               finding.message;
    };

    if (!options.writeBaselinePath.empty()) {
        std::ofstream base(options.writeBaselinePath,
                           std::ios::binary);
        if (!base) {
            err << options.writeBaselinePath
                << ": cannot write baseline\n";
            return 2;
        }
        std::vector<std::string> keys;
        keys.reserve(findings.size());
        for (const Finding &finding : findings)
            keys.push_back(baselineKey(finding));
        std::sort(keys.begin(), keys.end());
        keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
        for (const std::string &key : keys)
            base << key << "\n";
    }

    if (!options.baselinePath.empty()) {
        std::ifstream base(options.baselinePath);
        if (!base) {
            err << options.baselinePath << ": cannot read baseline\n";
            return 2;
        }
        std::set<std::string> known;
        std::string entry;
        while (std::getline(base, entry)) {
            if (!entry.empty() && entry.back() == '\r')
                entry.pop_back();
            if (!entry.empty())
                known.insert(entry);
        }
        std::vector<Finding> fresh;
        for (Finding &finding : findings)
            if (!known.count(baselineKey(finding)))
                fresh.push_back(std::move(finding));
        findings = std::move(fresh);
    }

    for (const Finding &finding : findings) {
        out << finding.file << ":" << finding.line << ": ["
            << finding.check << "] " << finding.message << "\n";
    }

    if (!options.sarifPath.empty()) {
        std::ofstream sarif(options.sarifPath, std::ios::binary);
        if (!sarif) {
            err << options.sarifPath << ": cannot write SARIF output\n";
            return 2;
        }
        // Labeled roots already carry their prefix in each finding
        // path; only the legacy single unlabeled root needs one.
        const std::string prefix =
            roots.size() == 1 && roots[0].label.empty() ? roots[0].dir
                                                        : "";
        std::map<std::string, std::size_t> path_index;
        for (std::size_t i = 0; i < files.size(); ++i)
            path_index.insert({files[i].path, i});
        SnippetProvider snippets =
            [&](const std::string &file,
                std::size_t line) -> std::string {
            auto it = path_index.find(file);
            if (it == path_index.end() || line == 0)
                return "";
            const std::string &content = contents[it->second];
            std::size_t pos = 0;
            for (std::size_t l = 1; l < line; ++l) {
                pos = content.find('\n', pos);
                if (pos == std::string::npos)
                    return "";
                ++pos;
            }
            const std::size_t nl = content.find('\n', pos);
            std::string text = content.substr(
                pos,
                nl == std::string::npos ? std::string::npos : nl - pos);
            if (!text.empty() && text.back() == '\r')
                text.pop_back();
            return text;
        };
        writeSarif(findings, prefix, snippets, sarif);
    }
    if (!options.writeBaselinePath.empty())
        return 0;
    return findings.empty() ? 0 : 1;
}

} // namespace mindful::lint
