#include "gpr_lint/lint.hh"

#include <algorithm>
#include <array>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.hh"
#include "core/export.hh"
#include "gpr_lint/lexer.hh"

namespace gpr_lint {
namespace {

constexpr std::array<std::string_view, kNumRules> kRuleNames = {
    "D1", "D2", "D3", "D4", "D5",
};

constexpr std::array<std::string_view, kNumRules> kRuleSummaries = {
    "no nondeterminism sources (random_device, rand, time, clock reads, "
    "default-seeded engines)",
    "no pointer-keyed ordered containers; no iteration over "
    "unordered_{map,set}",
    "no raw std::thread / std::async / detach outside "
    "common/worker_pool.*",
    "mutable members and static objects must be atomic, a sync "
    "primitive, or carry // gpr:guarded_by(...)",
    "float accumulation in statistics paths must use the fixed-order "
    "reducers in common/statistics.*",
};

std::string
lower(std::string_view s)
{
    std::string out(s);
    for (char& c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

bool
pathMatchesAny(std::string_view file,
               const std::vector<std::string>& patterns)
{
    for (const std::string& p : patterns)
        if (file.find(p) != std::string_view::npos)
            return true;
    return false;
}

// ---------------------------------------------------------------------
// Annotation grammar (lives in comments):
//   gpr:lint-allow(D1[,D2...])[: why]       suppress at this/next line
//   gpr:lint-allow-file(D1[,D2...])[: why]  suppress for the whole file
//   gpr:guarded_by(<discipline>)            D4 guard declaration

struct Annotations
{
    std::uint32_t file_allow = 0; ///< rule bitmask
    /** line -> rule bitmask of per-site allows effective there. */
    std::vector<std::pair<std::size_t, std::uint32_t>> line_allow;
    /** Lines at which a gpr:guarded_by annotation is effective. */
    std::set<std::size_t> guarded;

    bool
    allowed(Rule r, std::size_t line) const
    {
        const std::uint32_t bit = 1u << static_cast<std::uint32_t>(r);
        if (file_allow & bit)
            return true;
        for (const auto& [l, mask] : line_allow)
            if (l == line && (mask & bit))
                return true;
        return false;
    }

    bool
    guardedInRange(std::size_t first, std::size_t last) const
    {
        auto it = guarded.lower_bound(first);
        return it != guarded.end() && *it <= last;
    }
};

/** Parse a rule list "D1,D2" at @p pos (just past the '(') into a
 *  bitmask; empty/unknown names are ignored. */
std::uint32_t
parseRuleMask(std::string_view text, std::size_t pos)
{
    std::uint32_t mask = 0;
    while (pos < text.size() && text[pos] != ')') {
        while (pos < text.size() && (text[pos] == ' ' || text[pos] == ','))
            ++pos;
        std::size_t end = pos;
        while (end < text.size() && text[end] != ',' && text[end] != ')' &&
               text[end] != ' ')
            ++end;
        const Rule r = ruleFromName(text.substr(pos, end - pos));
        if (r != Rule::NumRules)
            mask |= 1u << static_cast<std::uint32_t>(r);
        pos = end;
        if (pos < text.size() && text[pos] != ')')
            ++pos;
    }
    return mask;
}

Annotations
collectAnnotations(const std::vector<Comment>& comments)
{
    Annotations a;
    for (const Comment& c : comments) {
        for (std::size_t pos = c.text.find("gpr:");
             pos != std::string::npos;
             pos = c.text.find("gpr:", pos + 4)) {
            const std::string_view rest =
                std::string_view(c.text).substr(pos);
            if (rest.rfind("gpr:lint-allow-file(", 0) == 0) {
                a.file_allow |= parseRuleMask(
                    rest, std::string_view("gpr:lint-allow-file(").size());
            } else if (rest.rfind("gpr:lint-allow(", 0) == 0) {
                const std::uint32_t mask = parseRuleMask(
                    rest, std::string_view("gpr:lint-allow(").size());
                // Effective on every line the comment spans plus the
                // next one, so both trailing and preceding-line
                // placements work.
                for (std::size_t l = c.line; l <= c.end_line + 1; ++l)
                    a.line_allow.emplace_back(l, mask);
            } else if (rest.rfind("gpr:guarded_by(", 0) == 0) {
                for (std::size_t l = c.line; l <= c.end_line + 1; ++l)
                    a.guarded.insert(l);
            }
        }
    }
    return a;
}

// ---------------------------------------------------------------------
// Token-walk helpers

struct Walker
{
    const std::vector<Token>& t;

    bool
    is(std::size_t i, TokKind k, std::string_view text) const
    {
        return i < t.size() && t[i].kind == k && t[i].text == text;
    }
    bool
    id(std::size_t i, std::string_view name) const
    {
        return is(i, TokKind::Identifier, name);
    }
    bool
    punct(std::size_t i, std::string_view p) const
    {
        return is(i, TokKind::Punct, p);
    }
    bool
    isId(std::size_t i) const
    {
        return i < t.size() && t[i].kind == TokKind::Identifier;
    }
    /** t[i-1].text if it exists, else "". */
    std::string_view
    prevText(std::size_t i) const
    {
        return i > 0 ? std::string_view(t[i - 1].text)
                     : std::string_view{};
    }
    std::string_view
    nextText(std::size_t i) const
    {
        return i + 1 < t.size() ? std::string_view(t[i + 1].text)
                                : std::string_view{};
    }

    /** Token index just past a balanced <...> starting at @p i (which
     *  must be '<'); i unchanged if the angle never closes. */
    std::size_t
    skipAngles(std::size_t i) const
    {
        int depth = 0;
        for (std::size_t j = i; j < t.size(); ++j) {
            if (t[j].kind != TokKind::Punct)
                continue;
            if (t[j].text == "<")
                ++depth;
            else if (t[j].text == ">" && --depth == 0)
                return j + 1;
            else if (t[j].text == ";") // gave up: not template args
                return i;
        }
        return i;
    }
};

/** Half-open token ranges of every range-for body, plus the line of the
 *  `for` and the tokens of the range expression. */
struct RangeFor
{
    std::size_t body_begin = 0;
    std::size_t body_end = 0;
    std::size_t expr_begin = 0;
    std::size_t expr_end = 0;
    std::size_t line = 0;
};

std::vector<RangeFor>
findRangeFors(const Walker& w)
{
    std::vector<RangeFor> out;
    const auto& t = w.t;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (!w.id(i, "for") || !w.punct(i + 1, "("))
            continue;
        int depth = 0;
        std::size_t colon = 0, close = 0;
        for (std::size_t j = i + 1; j < t.size(); ++j) {
            if (t[j].kind != TokKind::Punct)
                continue;
            if (t[j].text == "(") {
                ++depth;
            } else if (t[j].text == ")") {
                if (--depth == 0) {
                    close = j;
                    break;
                }
            } else if (t[j].text == ":" && depth == 1 && colon == 0) {
                colon = j;
            }
        }
        if (close == 0 || colon == 0)
            continue; // classic for, or unbalanced
        RangeFor rf;
        rf.line = t[i].line;
        rf.expr_begin = colon + 1;
        rf.expr_end = close;
        if (w.punct(close + 1, "{")) {
            int bd = 0;
            std::size_t j = close + 1;
            for (; j < t.size(); ++j) {
                if (t[j].kind != TokKind::Punct)
                    continue;
                if (t[j].text == "{")
                    ++bd;
                else if (t[j].text == "}" && --bd == 0)
                    break;
            }
            rf.body_begin = close + 2;
            rf.body_end = j;
        } else {
            std::size_t j = close + 1;
            int bd = 0;
            for (; j < t.size(); ++j) {
                if (t[j].kind != TokKind::Punct)
                    continue;
                if (t[j].text == "(" || t[j].text == "{" ||
                    t[j].text == "[")
                    ++bd;
                else if (t[j].text == ")" || t[j].text == "}" ||
                         t[j].text == "]")
                    --bd;
                else if (t[j].text == ";" && bd == 0)
                    break;
            }
            rf.body_begin = close + 1;
            rf.body_end = j;
        }
        out.push_back(rf);
    }
    return out;
}

// ---------------------------------------------------------------------
// Rules

void
emit(std::vector<Finding>& out, const Annotations& a, Rule r,
     std::string_view file, std::size_t line, std::string message)
{
    if (a.allowed(r, line))
        return;
    out.push_back({r, std::string(file), line, std::move(message)});
}

constexpr std::string_view kRandCalls[] = {
    "rand", "srand", "rand_r", "drand48", "lrand48", "mrand48", "random",
};
constexpr std::string_view kTimeCalls[] = {
    "time", "clock", "gettimeofday", "localtime", "gmtime",
};
constexpr std::string_view kStdEngines[] = {
    "mt19937",       "mt19937_64",  "minstd_rand",
    "minstd_rand0",  "ranlux24",    "ranlux48",
    "knuth_b",       "default_random_engine",
};

void
ruleD1(const Walker& w, const Annotations& a, std::string_view file,
       std::vector<Finding>& out)
{
    const auto& t = w.t;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (!w.isId(i))
            continue;
        const std::string& name = t[i].text;

        if (name == "random_device") {
            emit(out, a, Rule::D1_NondeterminismSource, file, t[i].line,
                 "std::random_device is a per-run entropy source; derive "
                 "seeds with deriveSeed(root, stream) instead");
            continue;
        }

        const bool called = w.nextText(i) == "(";
        const std::string_view prev = w.prevText(i);
        const bool member = prev == "." || prev == "->";
        const bool qualified = prev == "::";
        const bool std_qualified =
            qualified && i >= 2 && w.id(i - 2, "std");

        if (called && !member && (!qualified || std_qualified)) {
            for (std::string_view r : kRandCalls) {
                if (name == r) {
                    emit(out, a, Rule::D1_NondeterminismSource, file,
                         t[i].line,
                         "C library RNG " + name +
                             "() is process-global and seed-order "
                             "dependent; use gpr::Rng with a derived "
                             "seed");
                    break;
                }
            }
            for (std::string_view c : kTimeCalls) {
                if (name == c) {
                    emit(out, a, Rule::D1_NondeterminismSource, file,
                         t[i].line,
                         "wall-clock call " + name +
                             "() is nondeterministic; timing/progress "
                             "files must carry "
                             "gpr:lint-allow-file(D1)");
                    break;
                }
            }
        }

        // <chrono> clock reads: <something ending in clock>::now().
        if (name == "now" && prev == "::" && i >= 2 && w.isId(i - 2)) {
            const std::string before = lower(t[i - 2].text);
            if (before.size() >= 5 &&
                before.compare(before.size() - 5, 5, "clock") == 0) {
                emit(out, a, Rule::D1_NondeterminismSource, file,
                     t[i].line,
                     t[i - 2].text +
                         "::now() reads a wall clock; results must "
                         "never depend on time (timing/progress files "
                         "carry gpr:lint-allow-file(D1))");
            }
        }

        // Default-seeded standard engines: `mt19937 g;` / `mt19937{}`.
        for (std::string_view e : kStdEngines) {
            if (name != e)
                continue;
            const std::string_view nx = w.nextText(i);
            const bool argless_temp =
                (nx == "(" && w.punct(i + 2, ")")) ||
                (nx == "{" && w.punct(i + 2, "}"));
            const bool argless_decl =
                w.isId(i + 1) &&
                (w.punct(i + 2, ";") ||
                 (w.punct(i + 2, "{") && w.punct(i + 3, "}")));
            if (argless_temp || argless_decl) {
                emit(out, a, Rule::D1_NondeterminismSource, file,
                     t[i].line,
                     "default-seeded std::" + name +
                         " draws an implementation-defined stream; "
                         "seed explicitly from deriveSeed()");
            }
            break;
        }
    }
}

void
ruleD2(const Walker& w, const Annotations& a, std::string_view file,
       std::vector<Finding>& out)
{
    const auto& t = w.t;

    // Pointer-keyed std::map / std::set.
    constexpr std::string_view ordered[] = {"map", "set", "multimap",
                                            "multiset"};
    for (std::size_t i = 2; i < t.size(); ++i) {
        if (!w.isId(i) || w.prevText(i) != "::" || !w.id(i - 2, "std"))
            continue;
        bool is_ordered = false;
        for (std::string_view o : ordered)
            is_ordered |= t[i].text == o;
        if (!is_ordered || !w.punct(i + 1, "<"))
            continue;
        // Walk the first template argument; a trailing '*' keys the
        // container by address.
        int depth = 0;
        std::size_t last = 0;
        for (std::size_t j = i + 1; j < t.size(); ++j) {
            if (t[j].kind == TokKind::Punct) {
                if (t[j].text == "<") {
                    ++depth;
                    continue;
                }
                if (t[j].text == ">") {
                    if (--depth == 0)
                        break;
                    continue;
                }
                if (t[j].text == "," && depth == 1)
                    break;
                if (t[j].text == ";")
                    break; // comparison, not a template
            }
            last = j;
        }
        if (last && w.punct(last, "*")) {
            emit(out, a, Rule::D2_AddressOrderedContainer, file, t[i].line,
                 "std::" + t[i].text +
                     " keyed by a pointer iterates in allocation-address "
                     "order, which differs run to run; key by a stable "
                     "id instead");
        }
    }

    // Names declared with an unordered container type in this file.
    std::unordered_set<std::string> unordered_names;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (!w.isId(i) || t[i].text.rfind("unordered_", 0) != 0)
            continue;
        std::size_t j = i + 1;
        if (w.punct(j, "<"))
            j = w.skipAngles(j);
        while (w.punct(j, "&") || w.punct(j, "*") || w.id(j, "const"))
            ++j;
        if (w.isId(j) && !w.punct(j + 1, "(")) // not a function name
            unordered_names.insert(t[j].text);
    }

    for (const RangeFor& rf : findRangeFors(w)) {
        for (std::size_t j = rf.expr_begin; j < rf.expr_end; ++j) {
            if (!w.isId(j))
                continue;
            const bool direct = t[j].text.rfind("unordered_", 0) == 0;
            const bool named = unordered_names.count(t[j].text) > 0;
            if (direct || named) {
                emit(out, a, Rule::D2_AddressOrderedContainer, file,
                     rf.line,
                     "iteration over unordered container '" + t[j].text +
                         "' visits elements in hash/rehash order; sort "
                         "the keys first, or suppress if the fold is "
                         "provably order-insensitive");
                break;
            }
        }
    }
}

void
ruleD3(const Walker& w, const Annotations& a, std::string_view file,
       const LintOptions& opts, std::vector<Finding>& out)
{
    if (pathMatchesAny(file, opts.threadOwnerPaths))
        return;
    const auto& t = w.t;
    for (std::size_t i = 2; i < t.size(); ++i) {
        if (!w.isId(i))
            continue;
        const std::string& name = t[i].text;
        if ((name == "thread" || name == "jthread") &&
            w.prevText(i) == "::" && w.id(i - 2, "std") &&
            w.nextText(i) != "::") {
            emit(out, a, Rule::D3_RawThread, file, t[i].line,
                 "raw std::" + name +
                     " outside common/worker_pool.*; submit to a "
                     "WorkerPool so parallelism stays deterministic "
                     "and bounded");
        }
        if (name == "async" && w.prevText(i) == "::" &&
            w.id(i - 2, "std")) {
            emit(out, a, Rule::D3_RawThread, file, t[i].line,
                 "std::async spawns unmanaged threads with "
                 "launch-policy-dependent scheduling; use a "
                 "WorkerPool");
        }
        if (name == "detach" &&
            (w.prevText(i) == "." || w.prevText(i) == "->") &&
            w.nextText(i) == "(") {
            emit(out, a, Rule::D3_RawThread, file, t[i].line,
                 "detach() abandons a thread past join-based "
                 "determinism barriers; threads must be joined (by the "
                 "WorkerPool)");
        }
    }
}

constexpr std::string_view kSyncTypes[] = {
    "atomic",          "atomic_flag",
    "atomic_bool",     "atomic_uint64_t",
    "mutex",           "shared_mutex",
    "recursive_mutex", "timed_mutex",
    "once_flag",       "condition_variable",
    "condition_variable_any",
};

bool
containsSyncType(const Walker& w, std::size_t begin, std::size_t end)
{
    for (std::size_t j = begin; j < end; ++j) {
        if (!w.isId(j))
            continue;
        for (std::string_view s : kSyncTypes)
            if (w.t[j].text == s)
                return true;
    }
    return false;
}

void
ruleD4(const Walker& w, const Annotations& a, std::string_view file,
       std::vector<Finding>& out)
{
    const auto& t = w.t;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (!w.isId(i))
            continue;

        if (t[i].text == "mutable") {
            if (w.prevText(i) == ")")
                continue; // lambda specifier
            int depth = 0;
            std::size_t j = i + 1;
            for (; j < t.size(); ++j) {
                if (t[j].kind != TokKind::Punct)
                    continue;
                const std::string& p = t[j].text;
                if (p == "(" || p == "{" || p == "[")
                    ++depth;
                else if (p == ")" || p == "}" || p == "]")
                    --depth;
                else if (p == ";" && depth == 0)
                    break;
            }
            const std::size_t end_line =
                j < t.size() ? t[j].line : t.back().line;
            if (containsSyncType(w, i + 1, j))
                continue;
            if (a.guardedInRange(t[i].line, end_line))
                continue;
            emit(out, a, Rule::D4_UnguardedSharedState, file, t[i].line,
                 "mutable member without a guard discipline: make it "
                 "atomic or annotate // gpr:guarded_by(<mutex or "
                 "single-writer argument>)");
        }

        if (t[i].text == "static") {
            // Walk the declaration head; '(' at angle depth 0 means a
            // function (not checked), and any cv/sync/thread_local
            // keyword makes the object safe.
            int angles = 0;
            bool is_object = false;
            std::size_t j = i + 1;
            for (; j < t.size(); ++j) {
                if (t[j].kind == TokKind::Punct) {
                    const std::string& p = t[j].text;
                    if (p == "<") {
                        ++angles;
                        continue;
                    }
                    if (p == ">") {
                        --angles;
                        continue;
                    }
                    if (angles > 0)
                        continue;
                    if (p == "(")
                        break; // function declaration/definition
                    if (p == ";" || p == "=" || p == "{") {
                        is_object = true;
                        break;
                    }
                }
            }
            if (!is_object || j >= t.size())
                continue;
            bool safe = containsSyncType(w, i + 1, j);
            for (std::size_t k = i + 1; k < j && !safe; ++k) {
                safe = w.id(k, "const") || w.id(k, "constexpr") ||
                       w.id(k, "constinit") || w.id(k, "thread_local");
            }
            // `thread_local static` orderings put the keyword first.
            if (i > 0 && w.id(i - 1, "thread_local"))
                safe = true;
            if (safe)
                continue;
            if (a.guardedInRange(t[i].line, t[j].line))
                continue;
            emit(out, a, Rule::D4_UnguardedSharedState, file, t[i].line,
                 "non-const static object is cross-thread shared state: "
                 "make it const/atomic or annotate // "
                 "gpr:guarded_by(...) with the discipline that guards "
                 "it");
        }
    }
}

bool
floatyName(const std::string& name)
{
    const std::string l = lower(name);
    return l.find("seconds") != std::string::npos ||
           l.find("avf") != std::string::npos || l == "weight" ||
           l == "weights";
}

void
ruleD5(const Walker& w, const Annotations& a, std::string_view file,
       const LintOptions& opts, std::vector<Finding>& out)
{
    if (!pathMatchesAny(file, opts.statsPaths))
        return;
    const auto& t = w.t;

    // Names declared floating-point in this file (locals, params,
    // members, vector<double> elements), keyed to the earliest
    // declaration's token index: a name only counts as floating-point
    // at use sites *after* its declaration, so an unrelated `double&
    // out` parameter later in the file does not taint an earlier
    // `std::string out`.
    std::unordered_map<std::string, std::size_t> float_decls;
    auto record = [&](const std::string& name, std::size_t idx) {
        auto [it, fresh] = float_decls.emplace(name, idx);
        if (!fresh && idx < it->second)
            it->second = idx;
    };
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (w.id(i, "double") || w.id(i, "float")) {
            std::size_t j = i + 1;
            while (w.punct(j, "&") || w.punct(j, "*"))
                ++j;
            if (w.isId(j)) {
                const std::string_view nx = w.nextText(j);
                if (nx == "=" || nx == ";" || nx == "," || nx == ")" ||
                    nx == "{")
                    record(t[j].text, j);
            }
        }
        if (w.id(i, "vector") && w.punct(i + 1, "<") &&
            (w.id(i + 2, "double") || w.id(i + 2, "float")) &&
            w.punct(i + 3, ">")) {
            std::size_t j = i + 4;
            while (w.punct(j, "&") || w.punct(j, "*") || w.id(j, "const"))
                ++j;
            if (w.isId(j))
                record(t[j].text, j);
        }
    }

    auto is_floaty = [&](const std::string& name, std::size_t use_idx) {
        if (floatyName(name))
            return true;
        const auto it = float_decls.find(name);
        return it != float_decls.end() && it->second < use_idx;
    };

    const std::vector<RangeFor> fors = findRangeFors(w);
    auto in_rangefor_body = [&](std::size_t idx) {
        for (const RangeFor& rf : fors)
            if (idx >= rf.body_begin && idx < rf.body_end)
                return true;
        return false;
    };

    for (std::size_t i = 1; i < t.size(); ++i) {
        if (t[i].kind == TokKind::Punct &&
            (t[i].text == "+=" || t[i].text == "-=") &&
            in_rangefor_body(i)) {
            // String/char concatenation is never float math.
            if (i + 1 < t.size() && (t[i + 1].kind == TokKind::String ||
                                     t[i + 1].kind == TokKind::Char))
                continue;
            // Walk the LHS access chain backwards (a.b, a->b, a[k].b).
            std::size_t j = i - 1;
            bool flagged = false;
            while (j > 0 && !flagged) {
                if (w.punct(j, "]")) {
                    int d = 0;
                    while (j > 0) {
                        if (w.punct(j, "]"))
                            ++d;
                        else if (w.punct(j, "[") && --d == 0)
                            break;
                        --j;
                    }
                    if (j == 0)
                        break;
                    --j;
                    continue;
                }
                if (!w.isId(j))
                    break;
                if (is_floaty(t[j].text, i)) {
                    emit(out, a, Rule::D5_FloatAccumulationOrder, file,
                         t[i].line,
                         "floating-point accumulation of '" + t[j].text +
                             "' inside a range-for folds in container "
                             "order; collect and reduce with "
                             "fixedOrderSum()/NeumaierSum "
                             "(common/statistics.hh)");
                    flagged = true;
                    break;
                }
                const std::string_view pv = w.prevText(j);
                if (pv == "." || pv == "->" || pv == "::")
                    j -= 2;
                else
                    break;
            }
        }

        if (w.id(i, "accumulate") && w.prevText(i) == "::" && i >= 2 &&
            w.id(i - 2, "std")) {
            emit(out, a, Rule::D5_FloatAccumulationOrder, file, t[i].line,
                 "std::accumulate hides the reduction order and invites "
                 "regrouping; use fixedOrderSum()/NeumaierSum for float "
                 "series (suppress for integral folds)");
        }
    }
}

} // namespace

std::string_view
ruleName(Rule r)
{
    const auto i = static_cast<std::size_t>(r);
    return i < kNumRules ? kRuleNames[i] : std::string_view("??");
}

std::string_view
ruleSummary(Rule r)
{
    const auto i = static_cast<std::size_t>(r);
    return i < kNumRules ? kRuleSummaries[i] : std::string_view{};
}

Rule
ruleFromName(std::string_view name)
{
    std::string u = lower(name);
    for (char& c : u)
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    for (std::size_t i = 0; i < kNumRules; ++i)
        if (u == kRuleNames[i])
            return static_cast<Rule>(i);
    return Rule::NumRules;
}

std::vector<Finding>
lintSource(std::string_view file, std::string_view source,
           const LintOptions& options)
{
    const LexResult lexed = lex(file, source);
    const Annotations ann = collectAnnotations(lexed.comments);
    const Walker w{lexed.tokens};

    std::vector<Finding> out;
    auto run = [&](Rule r, auto&& fn) {
        if (!options.ruleEnabled(r))
            return;
        if (ann.file_allow & (1u << static_cast<std::uint32_t>(r)))
            return;
        fn();
    };
    run(Rule::D1_NondeterminismSource,
        [&] { ruleD1(w, ann, file, out); });
    run(Rule::D2_AddressOrderedContainer,
        [&] { ruleD2(w, ann, file, out); });
    run(Rule::D3_RawThread,
        [&] { ruleD3(w, ann, file, options, out); });
    run(Rule::D4_UnguardedSharedState,
        [&] { ruleD4(w, ann, file, out); });
    run(Rule::D5_FloatAccumulationOrder,
        [&] { ruleD5(w, ann, file, options, out); });

    std::stable_sort(out.begin(), out.end(),
                     [](const Finding& a, const Finding& b) {
                         return a.line < b.line;
                     });
    return out;
}

std::vector<Finding>
lintFile(const std::string& path, const LintOptions& options)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw gpr::FatalError("gpr_lint: cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return lintSource(path, ss.str(), options);
}

std::vector<std::string>
filesFromCompileCommands(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw gpr::FatalError("gpr_lint: cannot read compile database " +
                              path);
    std::ostringstream ss;
    ss << in.rdbuf();
    const gpr::JsonValue db = gpr::parseJson(ss.str());

    std::vector<std::string> files;
    std::unordered_set<std::string> seen;
    for (const gpr::JsonValue& entry : db.items()) {
        const gpr::JsonValue* file = entry.find("file");
        if (!file)
            throw gpr::FatalError(
                "gpr_lint: compile database entry without \"file\"");
        std::filesystem::path p(file->asString());
        if (p.is_relative()) {
            if (const gpr::JsonValue* dir = entry.find("directory"))
                p = std::filesystem::path(dir->asString()) / p;
        }
        const std::string ext = p.extension().string();
        if (ext != ".cc" && ext != ".cpp" && ext != ".cxx" &&
            ext != ".hh" && ext != ".hpp" && ext != ".h")
            continue;
        std::string s = p.lexically_normal().string();
        if (seen.insert(s).second)
            files.push_back(std::move(s));
    }
    return files;
}

std::vector<std::string>
expandInputs(const std::vector<std::string>& inputs)
{
    namespace fs = std::filesystem;
    std::vector<std::string> files;
    std::unordered_set<std::string> seen;
    auto add = [&](const fs::path& p) {
        std::string s = p.lexically_normal().string();
        if (seen.insert(s).second)
            files.push_back(std::move(s));
    };
    for (const std::string& input : inputs) {
        const fs::path p(input);
        if (fs::is_directory(p)) {
            // Directory iteration order is filesystem-specific; sort so
            // the lint's own output is deterministic.
            std::vector<fs::path> entries;
            for (const auto& e : fs::recursive_directory_iterator(p)) {
                if (!e.is_regular_file())
                    continue;
                const std::string ext = e.path().extension().string();
                if (ext == ".cc" || ext == ".cpp" || ext == ".cxx" ||
                    ext == ".hh" || ext == ".hpp" || ext == ".h")
                    entries.push_back(e.path());
            }
            std::sort(entries.begin(), entries.end());
            for (const fs::path& e : entries)
                add(e);
        } else {
            add(p);
        }
    }
    return files;
}

} // namespace gpr_lint
