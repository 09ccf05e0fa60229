/**
 * @file
 * Adaptive-sampling benchmark: the sequential early-stopping engine vs
 * the exhaustive fixed-N plan at equal (margin, confidence), over the
 * paper's (workload, GPU, structure) grid.
 *
 * Both studies share seeds, so every adaptive campaign is literally a
 * prefix of the corresponding fixed campaign's injection sequence.  The
 * run doubles as a statistical acceptance check, per campaign and per
 * rate (AVF, SDC, DUE):
 *
 *  - the exhaustive fixed-N estimate must lie inside the adaptive
 *    campaign's *reported* interval — the honesty guarantee: adaptive
 *    uncertainty always covers the ground truth it stopped short of;
 *  - the two runs' intervals must overlap (statistical compatibility).
 *
 * (The reverse containment — adaptive point estimate inside the fixed
 * run's much tighter interval — is reported per row but not gated: a
 * low-rate campaign that legitimately observes zero failures in its
 * prefix cannot be inside a fixed interval that excludes zero.)
 * Any gated violation fails the process.  Results are emitted as one
 * BENCH JSON document on stdout; the `reduction` field is the
 * grid-total injection saving at equal (margin, confidence).
 *
 *     $ bench_adaptive_sampling [--workloads=a,b] [--gpus=a,b]
 *           [--structures=a,b] [--margin=M] [--confidence=C]
 *           [--max-injections=N] [--seed=S] [--jobs=N]
 *
 * Defaults: the full paper grid at margin 5 %, the spec's default 99 %
 * confidence (fixed-N equivalent: requiredSamples(0.05, 0.99) = 664
 * injections per campaign).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "core/bench_cli.hh"
#include "core/comparison.hh"
#include "core/orchestrator.hh"
#include "sim/structure_registry.hh"

namespace {

using namespace gpr;

struct CampaignRow
{
    std::string workload;
    std::string gpu;
    std::string structure;
    std::size_t fixedN = 0;
    std::size_t adaptiveN = 0;
    double fixedAvf = 0.0;
    double adaptiveAvf = 0.0;
    double fixedLo = 0.0;
    double fixedHi = 0.0;
    double adaptiveLo = 0.0;
    double adaptiveHi = 0.0;
    double achievedMargin = 0.0;
    /** Gated: exhaustive estimates inside the adaptive intervals. */
    bool truthInsideAdaptive = true;
    /** Gated: the two runs' intervals overlap, rate by rate. */
    bool ciOverlap = true;
    /** Informational only (fails legitimately for low-rate cells). */
    bool adaptiveInsideFixed = true;
};

bool
inside(double value, const Interval& iv)
{
    return value >= iv.lo && value <= iv.hi;
}

bool
overlap(const Interval& a, const Interval& b)
{
    return std::max(a.lo, b.lo) <= std::min(a.hi, b.hi);
}

int
run(int argc, char** argv)
{
    BenchCli cli;
    if (!cli.parse(argc, argv))
        return 2;
    if (cli.rejectMetaActions("bench_adaptive_sampling"))
        return 2;
    if (!cli.spec.plan.adaptive())
        cli.spec.plan.margin = 0.05;
    cli.spec.verbose = false;
    cli.spec.storePath.clear();
    cli.spec.resume = false;

    StudySpec adaptive = cli.spec;
    StudySpec fixed = cli.spec;
    fixed.plan.margin = 0.0;
    fixed.plan.maxInjections = 0;
    fixed.plan.injections = adaptive.plan.resolvedMaxInjections();

    std::fprintf(stderr,
                 "adaptive_sampling: margin %.2f%%, confidence %.0f%%, "
                 "fixed-N equivalent %zu injections/campaign\n",
                 100.0 * adaptive.plan.margin,
                 100.0 * adaptive.plan.confidence,
                 fixed.plan.injections);

    StudyProgress fixed_progress;
    const StudyResult fixed_result = runStudy(fixed, &fixed_progress);
    StudyProgress adaptive_progress;
    const StudyResult adaptive_result =
        runStudy(adaptive, &adaptive_progress);

    std::vector<CampaignRow> rows;
    std::uint64_t fixed_total = 0, adaptive_total = 0;
    bool all_compatible = true;
    std::size_t adaptive_inside_fixed = 0;
    for (std::size_t i = 0; i < fixed_result.reports.size(); ++i) {
        const ReliabilityReport& fr = fixed_result.reports[i];
        const ReliabilityReport& ar = adaptive_result.reports[i];
        for (const StructureSpec& sspec : structureRegistry()) {
            const StructureReport& fs = fr.forStructure(sspec.id);
            const StructureReport& as = ar.forStructure(sspec.id);
            if (!fs.injections)
                continue;
            CampaignRow row;
            row.workload = fr.workload;
            row.gpu = std::string(gpuShortName(fr.gpu));
            row.structure = std::string(sspec.shortName);
            row.fixedN = fs.injections;
            row.adaptiveN = as.injections;
            row.fixedAvf = fs.avfFi;
            row.adaptiveAvf = as.avfFi;
            row.fixedLo = fs.avfCi.lo;
            row.fixedHi = fs.avfCi.hi;
            row.adaptiveLo = as.avfCi.lo;
            row.adaptiveHi = as.avfCi.hi;
            row.achievedMargin = as.achievedMargin;
            row.truthInsideAdaptive = inside(fs.avfFi, as.avfCi) &&
                                      inside(fs.sdcRate, as.sdcCi) &&
                                      inside(fs.dueRate, as.dueCi);
            row.ciOverlap = overlap(fs.avfCi, as.avfCi) &&
                            overlap(fs.sdcCi, as.sdcCi) &&
                            overlap(fs.dueCi, as.dueCi);
            row.adaptiveInsideFixed = inside(as.avfFi, fs.avfCi) &&
                                      inside(as.sdcRate, fs.sdcCi) &&
                                      inside(as.dueRate, fs.dueCi);
            all_compatible = all_compatible && row.truthInsideAdaptive &&
                             row.ciOverlap;
            adaptive_inside_fixed += row.adaptiveInsideFixed ? 1 : 0;
            fixed_total += fs.injections;
            adaptive_total += as.injections;
            rows.push_back(std::move(row));
        }
    }

    const double reduction =
        adaptive_total
            ? static_cast<double>(fixed_total) /
                  static_cast<double>(adaptive_total)
            : 0.0;

    // ---- BENCH JSON ----
    std::printf("{\n  \"bench\": \"adaptive_sampling\",\n");
    std::printf("  \"margin\": %.6f,\n", adaptive.plan.margin);
    std::printf("  \"confidence\": %.6f,\n", adaptive.plan.confidence);
    std::printf("  \"fixed_n_per_campaign\": %zu,\n",
                fixed.plan.injections);
    std::printf("  \"campaigns\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const CampaignRow& r = rows[i];
        std::printf(
            "    {\"workload\": \"%s\", \"gpu\": \"%s\", "
            "\"structure\": \"%s\", \"fixed_n\": %zu, "
            "\"adaptive_n\": %zu, \"fixed_avf\": %.6f, "
            "\"adaptive_avf\": %.6f, \"fixed_ci_lo\": %.6f, "
            "\"fixed_ci_hi\": %.6f, \"adaptive_ci_lo\": %.6f, "
            "\"adaptive_ci_hi\": %.6f, \"achieved_margin\": %.6f, "
            "\"truth_inside_adaptive_ci\": %s, \"ci_overlap\": %s, "
            "\"adaptive_inside_fixed_ci\": %s}%s\n",
            r.workload.c_str(), r.gpu.c_str(), r.structure.c_str(),
            r.fixedN, r.adaptiveN, r.fixedAvf, r.adaptiveAvf, r.fixedLo,
            r.fixedHi, r.adaptiveLo, r.adaptiveHi, r.achievedMargin,
            r.truthInsideAdaptive ? "true" : "false",
            r.ciOverlap ? "true" : "false",
            r.adaptiveInsideFixed ? "true" : "false",
            i + 1 < rows.size() ? "," : "");
    }
    std::printf("  ],\n");
    std::printf("  \"aggregate\": {\n");
    std::printf("    \"campaigns\": %zu,\n", rows.size());
    std::printf("    \"fixed_injections\": %llu,\n",
                static_cast<unsigned long long>(fixed_total));
    std::printf("    \"adaptive_injections\": %llu,\n",
                static_cast<unsigned long long>(adaptive_total));
    std::printf("    \"pruned_shards\": %zu,\n",
                adaptive_progress.prunedShards);
    std::printf("    \"fixed_wall_s\": %.3f,\n",
                fixed_progress.wallSeconds);
    std::printf("    \"adaptive_wall_s\": %.3f,\n",
                adaptive_progress.wallSeconds);
    std::printf("    \"reduction\": %.3f,\n", reduction);
    std::printf("    \"adaptive_inside_fixed_count\": %zu,\n",
                adaptive_inside_fixed);
    std::printf("    \"all_estimates_compatible\": %s\n",
                all_compatible ? "true" : "false");
    std::printf("  }\n}\n");

    if (!all_compatible) {
        std::fprintf(stderr,
                     "FAIL: an exhaustive estimate fell outside the "
                     "adaptive campaign's reported interval (or the "
                     "intervals do not overlap)\n");
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    return gpr::runToolMain(run, argc, argv);
}
