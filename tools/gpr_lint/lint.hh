/**
 * @file
 * gpr_lint — the repository's determinism & concurrency checker.
 *
 * Every headline result of this codebase (bit-identical campaigns at any
 * --jobs/--shards/resume history, cross-engine differential gates) rests
 * on a handful of invariants that no compiler enforces.  gpr_lint
 * mechanically rejects the patterns that break them, as named rules:
 *
 *  - **D1 nondeterminism-source**: no std::random_device, rand()/srand(),
 *    time()/clock(), default-seeded standard engines, or clock reads
 *    (steady_clock::now() & friends) — except in files that declare
 *    themselves part of the timing/progress whitelist with
 *    `// gpr:lint-allow-file(D1): <why>` (wall-clock diagnostics only,
 *    never feeding results).
 *  - **D2 address-ordered-container**: no pointer-keyed std::map/std::set
 *    (iteration order = allocation order), and no range-for iteration
 *    over std::unordered_{map,set} (hash-seed/rehash order): anything an
 *    unordered walk feeds — exported results, hashes, RNG draws — becomes
 *    order-dependent.  Order-insensitive folds suppress per-site.
 *  - **D3 raw-thread**: no std::thread/std::jthread construction,
 *    std::async, or .detach() outside common/worker_pool.* — all
 *    parallelism goes through a WorkerPool, whose threads are always
 *    joined, so campaigns stay deterministic by (seed, index)
 *    decomposition.
 *  - **D4 unguarded-shared-state**: `mutable` members and non-const
 *    static objects must be atomics / sync primitives, or carry a
 *    `// gpr:guarded_by(<discipline>)` annotation naming the mutex or
 *    single-writer argument that makes them safe.
 *  - **D5 float-accumulation-order**: in statistics paths, floating-point
 *    sums folded inside range-for loops (and std::accumulate over
 *    floats) must go through the fixed-order reducers in
 *    common/statistics.* (fixedOrderSum / NeumaierSum), so the reduction
 *    order is explicit and container-independent.
 *
 * Any finding is suppressible at the site with
 * `// gpr:lint-allow(<rule>[,<rule>...]): <why>` on the same or the
 * immediately preceding line, or file-wide with
 * `// gpr:lint-allow-file(<rule>): <why>`.
 *
 * The checker is token-level by design: it lexes real C++ (comments,
 * raw strings, preprocessor lines) but does not build an AST, so it can
 * run on any file of the repository in milliseconds with zero compiler
 * dependencies.  The curated .clang-tidy config covers the AST-shaped
 * checks where clang-tidy is available.
 */

#ifndef GPR_LINT_LINT_HH
#define GPR_LINT_LINT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gpr_lint {

enum class Rule : std::uint8_t
{
    D1_NondeterminismSource,
    D2_AddressOrderedContainer,
    D3_RawThread,
    D4_UnguardedSharedState,
    D5_FloatAccumulationOrder,
    NumRules,
};

constexpr std::size_t kNumRules =
    static_cast<std::size_t>(Rule::NumRules);

std::string_view ruleName(Rule r);    ///< "D1" .. "D5"
std::string_view ruleSummary(Rule r); ///< one-line description
/** Rule from "D1".."D5" (case-insensitive); NumRules when unknown. */
Rule ruleFromName(std::string_view name);

struct Finding
{
    Rule rule = Rule::NumRules;
    std::string file;
    std::size_t line = 0;
    std::string message;
};

struct LintOptions
{
    /** Bitmask of enabled rules (bit i = rule i); default all. */
    std::uint32_t enabled = (1u << kNumRules) - 1;

    /** Path substrings owning raw threads (exempt from D3). */
    std::vector<std::string> threadOwnerPaths = {"common/worker_pool."};

    /**
     * Path substrings of the "statistics paths" D5 applies to: the files
     * whose floating-point reductions feed exported rates, figures, and
     * claims.
     */
    std::vector<std::string> statsPaths = {
        "common/statistics", "reliability/", "core/comparison",
        "core/export",       "core/orchestrator",
    };

    bool
    ruleEnabled(Rule r) const
    {
        return enabled & (1u << static_cast<std::uint32_t>(r));
    }
};

/** Lint @p source as file @p file.  Findings are ordered by line. */
std::vector<Finding> lintSource(std::string_view file,
                                std::string_view source,
                                const LintOptions& options = {});

/** Lint a file on disk (throws gpr::FatalError if unreadable). */
std::vector<Finding> lintFile(const std::string& path,
                              const LintOptions& options = {});

/**
 * The unique source files of a compile_commands.json (absolute paths,
 * in document order, duplicates removed).  Only .cc/.cpp/.cxx/.hh/.hpp/.h
 * entries are returned; throws gpr::FatalError on a malformed database.
 */
std::vector<std::string> filesFromCompileCommands(
    const std::string& path);

/**
 * Expand @p inputs into the lint work-list: files are taken as-is,
 * directories are walked recursively for .cc and .hh sources (plus
 * .cpp/.hpp/.h/.cxx),
 * duplicates removed while preserving first-seen order.
 */
std::vector<std::string> expandInputs(
    const std::vector<std::string>& inputs);

} // namespace gpr_lint

#endif // GPR_LINT_LINT_HH
