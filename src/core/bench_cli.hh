/**
 * @file
 * Command-line parsing shared by gpr_cli, the bench
 * harnesses and the examples.  The flags are a thin veneer over
 * StudySpec — every run is describable as (and reproducible from) one
 * spec JSON artifact.
 *
 * Flags:
 *   --spec=FILE       load a StudySpec JSON document as the baseline
 *                     (flags after --spec override individual fields)
 *   --dump-spec       print the resolved spec JSON and exit (feed it
 *                     back through --spec to reproduce the run)
 *   --dry-run         print the decomposed shard work-list (per-cell
 *                     shard counts, total injections, golden runs)
 *                     without executing anything
 *   --injections=N    FI samples per structure (default 150; the paper's
 *                     value is 2000)
 *   --confidence=C    confidence level for margins (default 0.99)
 *   --margin=M        > 0 switches to adaptive sequential stopping:
 *                     each campaign injects until every rate's (SDC,
 *                     DUE, AVF) CI half-width is <= M (see
 *                     reliability/sampling.hh)
 *   --max-injections=N  adaptive cap per campaign (default: the
 *                     fixed-size equivalent of (margin, confidence))
 *   --seed=S          campaign seed (default 0xC0FFEE)
 *   --jobs=N          worker threads (default: hardware concurrency)
 *   --shards=N        campaign shards (default: derived from the plan)
 *   --checkpoints=N   evenly spaced golden-run checkpoints for the
 *                     checkpoint-restore injection engine (default
 *                     kDefaultCheckpoints, 16; at most kMaxCheckpoints,
 *                     511; 0 = legacy from-scratch engine, kept for
 *                     differential tests)
 *   --store=FILE      JSONL shard store to checkpoint into
 *   --resume[=FILE]   resume from the store, skipping finished shards
 *                     (refused with a spec-hash error if the store was
 *                     written under a different campaign spec)
 *   --workloads=a,b   subset of benchmarks
 *   --gpus=a,b        subset of GPUs (7970, fx5600, fx5800, gtx480)
 *   --structures=a,b  subset of registered target structures, by
 *                     canonical or short name (rf, lds, srf, pred, simt,
 *                     l1d, l1i, l2); validated against the structure
 *                     registry
 *   --behavior=B      fault behavior: transient (default), stuck-at-0,
 *                     stuck-at-1, intermittent (see sim/fault_model.hh)
 *   --pattern=P       fault pattern: single (default), adjacent-double,
 *                     adjacent-quad (aligned multi-bit upset masks)
 *   --ace-only        skip fault injection (ACE + occupancy + perf only)
 *   --csv             additionally print tables as CSV
 *   --json            print the study as JSON instead of tables
 *
 * N and S are non-negative integers that must fit their spec field;
 * a malformed or out-of-range number throws FatalError naming the flag
 * and the value, as does a --confidence or --margin outside its range.
 */

#ifndef GPR_CORE_BENCH_CLI_HH
#define GPR_CORE_BENCH_CLI_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "common/logging.hh"
#include "common/string_utils.hh"
#include "core/orchestrator.hh"
#include "reliability/campaign.hh"

namespace gpr {

struct BenchCli
{
    /** The experiment the flags describe. */
    StudySpec spec;
    bool csv = false;
    bool json = false;
    /** --dry-run: plan and cost the spec, execute nothing. */
    bool dryRun = false;
    /** --dump-spec: emit the spec JSON, execute nothing. */
    bool dumpSpec = false;

    /**
     * Parse argv.  Returns false after printing the usage text on an
     * unknown flag or --help; throws FatalError naming the flag and the
     * value on a malformed or out-of-range one.
     */
    bool parse(int argc, char** argv);

    /**
     * The spec's campaign fields (plan, seed, jobs, checkpoints, fault
     * shape) as one standalone campaign, for harnesses that run their
     * own campaigns with runCampaign() instead of runStudy().
     */
    CampaignConfig campaign() const;

    /**
     * Handle --dump-spec / --dry-run: when either was requested, write
     * the spec JSON or the decomposed work-list to @p os and return
     * true — the caller should exit without running the study.  Only
     * for harnesses that execute runStudy(spec); custom-campaign
     * harnesses use rejectMetaActions() instead.
     */
    bool runMetaActions(std::ostream& os) const;

    /**
     * For harnesses that run custom (non-grid) campaigns, where a
     * planStudy() work-list would misdescribe the actual work: when
     * --dump-spec / --dry-run was requested, explain on stderr that
     * @p harness does not support it and return true — the caller
     * should exit nonzero.
     */
    bool rejectMetaActions(std::string_view harness) const;

    /** Print the standard bench header (plan, margin, GPUs). */
    void printHeader(std::ostream& os, const std::string& title) const;

    /**
     * If --json was given, write @p study as one JSON document to @p os
     * and return true — the caller should then skip its tables.  JSON
     * supersedes --csv (noted on stderr when both are requested).
     */
    bool printStudyJson(std::ostream& os, const StudyResult& study) const;
};

/**
 * The value of @p arg, an integer flag `<flag>=N`, as a T.  Throws
 * FatalError naming the flag and the value unless N is a non-negative
 * integer that T holds (runToolMain reports it as `error: …`, exit 2).
 */
template <typename T>
T
intFlag(const std::string& arg, std::string_view flag)
{
    const std::string text = arg.substr(flag.size() + 1);
    const std::uint64_t max = std::min<std::uint64_t>(
        std::numeric_limits<T>::max(),
        std::numeric_limits<std::int64_t>::max());
    const auto n = parseInt(text);
    if (!n || *n < 0 || static_cast<std::uint64_t>(*n) > max) {
        fatal(flag, " must be an integer in [0, ", max, "], got '", text,
              "'");
    }
    return static_cast<T>(*n);
}

/**
 * Parse @p arg, a positional injection-count argument of @p tool.
 * Throws FatalError naming both unless it is a non-negative integer
 * (runToolMain reports it as `error: …` and exits 2).
 */
std::size_t parseInjectionCount(std::string_view tool, const char* arg);

} // namespace gpr

#endif // GPR_CORE_BENCH_CLI_HH
