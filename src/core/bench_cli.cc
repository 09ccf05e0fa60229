#include "core/bench_cli.hh"

#include <cstdio>
#include <ostream>

#include "common/logging.hh"
#include "common/string_utils.hh"
#include "core/export.hh"

namespace gpr {
namespace {

constexpr std::size_t kDefaultInjections = 150;

void
usage()
{
    std::fprintf(
        stderr,
        "flags: --spec=FILE --dump-spec --dry-run\n"
        "       --injections=N --confidence=C --margin=M\n"
        "       --max-injections=N --seed=S\n"
        "       --jobs=N --shards=N --checkpoints=N --store=FILE\n"
        "       --resume[=FILE] --workloads=a,b,...\n"
        "       --gpus=7970,fx5600,fx5800,gtx480\n"
        "       --structures=rf,lds,srf,pred,simt,l1d,l1i,l2 (registry subset)\n"
        "       --behavior=transient|stuck-at-0|stuck-at-1|intermittent\n"
        "       --pattern=single|adjacent-double|adjacent-quad\n"
        "       --ace-only --csv --json --quiet\n"
        "       (--spec loads a StudySpec JSON; later flags override\n"
        "        individual fields.  --margin=M > 0 switches to adaptive\n"
        "        sequential stopping: each campaign injects until every\n"
        "        rate's CI half-width <= M, capped at --max-injections\n"
        "        [default: the fixed-size equivalent].  --checkpoints=0\n"
        "        runs every injection from scratch — the legacy engine\n"
        "        kept for differential testing)\n");
}

} // namespace

bool
BenchCli::parse(int argc, char** argv)
{
    spec.plan.injections = kDefaultInjections;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](std::string_view prefix) -> std::string {
            return arg.substr(prefix.size());
        };

        if (startsWith(arg, "--spec=")) {
            // The file is the baseline; flags after it override fields.
            spec = StudySpec::fromJsonFile(value("--spec="));
        } else if (arg == "--dump-spec") {
            dumpSpec = true;
        } else if (arg == "--dry-run") {
            dryRun = true;
        } else if (startsWith(arg, "--injections=")) {
            spec.plan.injections = intFlag<std::size_t>(arg, "--injections");
        } else if (startsWith(arg, "--confidence=")) {
            const std::string text = value("--confidence=");
            const auto c = parseDouble(text);
            if (!c || *c <= 0 || *c >= 1)
                fatal("--confidence must lie in (0, 1), got '", text, "'");
            spec.plan.confidence = *c;
        } else if (startsWith(arg, "--margin=")) {
            const std::string text = value("--margin=");
            const auto m = parseDouble(text);
            if (!m || *m < 0 || *m >= 1)
                fatal("--margin must lie in [0, 1), got '", text, "'");
            spec.plan.margin = *m;
        } else if (startsWith(arg, "--max-injections=")) {
            spec.plan.maxInjections =
                intFlag<std::size_t>(arg, "--max-injections");
        } else if (startsWith(arg, "--seed=")) {
            spec.seed = intFlag<std::uint64_t>(arg, "--seed");
        } else if (startsWith(arg, "--jobs=")) {
            spec.jobs = intFlag<unsigned>(arg, "--jobs");
        } else if (startsWith(arg, "--shards=")) {
            spec.shardsPerCampaign = intFlag<std::size_t>(arg, "--shards");
        } else if (startsWith(arg, "--checkpoints=")) {
            spec.checkpoints = intFlag<unsigned>(arg, "--checkpoints");
        } else if (startsWith(arg, "--store=")) {
            spec.storePath = value("--store=");
        } else if (startsWith(arg, "--resume=")) {
            spec.storePath = value("--resume=");
            spec.resume = true;
        } else if (arg == "--resume") {
            spec.resume = true;
            if (spec.storePath.empty())
                spec.storePath = "study.jsonl";
        } else if (startsWith(arg, "--workloads=")) {
            spec.workloads = parseWorkloadList(value("--workloads="));
        } else if (startsWith(arg, "--gpus=")) {
            spec.gpus = parseGpuList(value("--gpus="));
        } else if (startsWith(arg, "--structures=")) {
            spec.structures = parseStructureList(value("--structures="));
        } else if (startsWith(arg, "--behavior=")) {
            spec.faultBehavior = faultBehaviorFromName(value("--behavior="));
        } else if (startsWith(arg, "--pattern=")) {
            spec.faultPattern = faultPatternFromName(value("--pattern="));
        } else if (arg == "--ace-only") {
            spec.aceOnly = true;
        } else if (arg == "--csv") {
            csv = true;
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--quiet") {
            spec.verbose = false;
            setInformEnabled(false);
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return false;
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
            usage();
            return false;
        }
    }
    // Full validation is deferred to runMetaActions()/runStudy(): some
    // harnesses legitimately adjust the spec after parsing (fig3 flips
    // ace-only when no campaign was requested) and must not be failed
    // on the intermediate state.  Name typos still fail right here —
    // the list parsers validate against the registries.
    return true;
}

CampaignConfig
BenchCli::campaign() const
{
    CampaignConfig cc;
    cc.plan = spec.plan;
    cc.seed = spec.seed;
    cc.numThreads = spec.jobs;
    cc.checkpoints = spec.checkpoints;
    cc.shape = spec.faultShape();
    return cc;
}

bool
BenchCli::runMetaActions(std::ostream& os) const
{
    if (dumpSpec) {
        spec.validate();
        spec.toJson(os);
        os << '\n';
        return true;
    }
    if (!dryRun)
        return false;

    const StudyPlan plan = planStudy(spec);
    os << "study plan (spec " << spec.campaignHashHex() << "):\n";
    os << strprintf("  %zu grid cells, %zu golden+ACE runs\n",
                    plan.gridCells, plan.goldenRuns);
    for (const StudyPlanCampaign& c : plan.campaigns) {
        os << strprintf(
            "  %-10s %-8s %-22s %3zu shards  %6llu injections\n",
            c.workload.c_str(),
            std::string(gpuShortName(c.gpu)).c_str(),
            std::string(targetStructureName(c.structure)).c_str(),
            c.shards, static_cast<unsigned long long>(c.injections));
    }
    os << strprintf("  total: %zu campaigns, %zu shards, %llu injections\n",
                    plan.campaigns.size(), plan.totalShards(),
                    static_cast<unsigned long long>(
                        plan.totalInjections()));
    if (spec.aceOnly)
        os << "  (ace-only: no fault-injection shards)\n";
    if (!spec.aceOnly && spec.plan.adaptive()) {
        os << strprintf(
            "  (adaptive: worst case; campaigns stop at +/-%.2f%% CI "
            "half-width, %.0f%% confidence)\n",
            100.0 * spec.plan.margin, 100.0 * spec.plan.confidence);
    }
    return true;
}

bool
BenchCli::rejectMetaActions(std::string_view harness) const
{
    if (!dumpSpec && !dryRun)
        return false;
    std::fprintf(stderr,
                 "%s runs a custom campaign, not the grid study its "
                 "spec would describe; --dump-spec/--dry-run apply to "
                 "grid harnesses (gpr study, bench_fig1/2/3)\n",
                 std::string(harness).c_str());
    return true;
}

bool
BenchCli::printStudyJson(std::ostream& os, const StudyResult& study) const
{
    if (!json)
        return false;
    if (csv)
        std::fprintf(stderr, "note: --json supersedes --csv\n");
    writeStudyJson(os, study);
    os << '\n';
    return true;
}

void
BenchCli::printHeader(std::ostream& os, const std::string& title) const
{
    os << "== " << title << " ==\n";
    if (spec.aceOnly) {
        os << "mode: ACE analysis only (no fault injection)\n";
    } else if (spec.plan.adaptive()) {
        os << strprintf(
            "statistical FI: adaptive stopping at +/-%.2f%% CI "
            "half-width, %.0f%% confidence, cap %zu "
            "injections/structure (%zu looks, peeking guard at "
            "%.2f%%)\n",
            100.0 * spec.plan.margin, 100.0 * spec.plan.confidence,
            spec.plan.resolvedMaxInjections(),
            sequentialSchedule(spec.plan).size(),
            100.0 * sequentialConfidence(spec.plan));
    } else {
        os << strprintf(
            "statistical FI: %zu injections/structure, +/-%.2f%% margin "
            "at %.0f%% confidence (paper: 2000 => 2.88%% at 99%%)\n",
            spec.plan.injections, 100.0 * spec.plan.errorMargin(),
            100.0 * spec.plan.confidence);
    }
    if (!spec.aceOnly && !spec.faultShape().isDefault()) {
        os << "fault model: "
           << std::string(faultBehaviorName(spec.faultBehavior)) << " x "
           << std::string(faultPatternName(spec.faultPattern)) << "\n";
    }
}

std::size_t
parseInjectionCount(std::string_view tool, const char* arg)
{
    const auto n = parseInt(arg);
    if (!n || *n < 0) {
        fatal(tool, ": injection count '", arg,
              "' is not a non-negative integer");
    }
    return static_cast<std::size_t>(*n);
}

} // namespace gpr
