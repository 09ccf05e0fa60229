/** @file Tests for the adaptive (sequential early-stopping) campaign
 *  engine: differential vs exhaustive fixed-N, and bit-identity under
 *  resume and any jobs/shards split. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "core/export.hh"
#include "core/orchestrator.hh"
#include "reliability/campaign.hh"
#include "workloads/workloads.hh"

namespace gpr {
namespace {

StudySpec
adaptiveMiniSpec()
{
    StudySpec spec;
    spec.workloads = {"vectoradd", "reduction"};
    spec.gpus = {GpuModel::QuadroFx5600};
    spec.plan.margin = 0.1;
    spec.plan.confidence = 0.9;
    spec.plan.maxInjections = 200;
    spec.verbose = false;
    return spec;
}

std::string
tempStorePath(const char* name)
{
    return testing::TempDir() + "gpr_adaptive_" + name + ".jsonl";
}

void
expectIdenticalReports(const StudyResult& a, const StudyResult& b)
{
    ASSERT_EQ(a.reports.size(), b.reports.size());
    for (std::size_t i = 0; i < a.reports.size(); ++i) {
        const ReliabilityReport& ra = a.reports[i];
        const ReliabilityReport& rb = b.reports[i];
        EXPECT_EQ(ra.workload, rb.workload);
        EXPECT_EQ(ra.cycles, rb.cycles);
        ASSERT_EQ(ra.structures.size(), rb.structures.size());
        for (std::size_t k = 0; k < ra.structures.size(); ++k) {
            const StructureReport& sa = ra.structures[k];
            const StructureReport& sb = rb.structures[k];
            EXPECT_EQ(sa.applicable, sb.applicable);
            // Bit-identical, stopping points included: the sequential
            // decision is a pure function of the ordered record prefix.
            EXPECT_EQ(sa.injections, sb.injections);
            EXPECT_EQ(sa.avfFi, sb.avfFi);
            EXPECT_EQ(sa.sdcRate, sb.sdcRate);
            EXPECT_EQ(sa.dueRate, sb.dueRate);
            EXPECT_EQ(sa.avfCi.lo, sb.avfCi.lo);
            EXPECT_EQ(sa.avfCi.hi, sb.avfCi.hi);
            EXPECT_EQ(sa.sdcCi.lo, sb.sdcCi.lo);
            EXPECT_EQ(sa.sdcCi.hi, sb.sdcCi.hi);
            EXPECT_EQ(sa.dueCi.lo, sb.dueCi.lo);
            EXPECT_EQ(sa.dueCi.hi, sb.dueCi.hi);
            EXPECT_EQ(sa.achievedMargin, sb.achievedMargin);
            EXPECT_EQ(sa.avfAce, sb.avfAce);
        }
        EXPECT_EQ(ra.epf.epf(), rb.epf.epf());
        EXPECT_EQ(ra.epfCi.lo, rb.epfCi.lo);
        EXPECT_EQ(ra.epfCi.hi, rb.epfCi.hi);
    }
}

TEST(AdaptiveCampaign, StopsEarlyAndAgreesWithExhaustiveFixedN)
{
    // One small cell, one structure.  The exhaustive run injects the
    // full cap; the adaptive run must stop earlier and its interval
    // must contain the exhaustive ground truth.
    StudySpec adaptive = adaptiveMiniSpec();
    adaptive.workloads = {"vectoradd"};
    adaptive.structures = {TargetStructure::VectorRegisterFile};

    StudySpec exhaustive = adaptive;
    exhaustive.plan.margin = 0.0;
    exhaustive.plan.maxInjections = 0;
    exhaustive.plan.injections = adaptive.plan.resolvedMaxInjections();

    const StudyResult a = runStudy(adaptive);
    const StudyResult e = runStudy(exhaustive);
    const StructureReport& sa = a.reports.front().forStructure(
        TargetStructure::VectorRegisterFile);
    const StructureReport& se = e.reports.front().forStructure(
        TargetStructure::VectorRegisterFile);

    ASSERT_EQ(se.injections, 200u);
    EXPECT_LT(sa.injections, se.injections)
        << "adaptive campaign failed to stop before the cap";
    EXPECT_LE(sa.achievedMargin, adaptive.plan.margin);

    // The exhaustive estimate lies inside the adaptive interval...
    EXPECT_GE(se.avfFi, sa.avfCi.lo);
    EXPECT_LE(se.avfFi, sa.avfCi.hi);
    // ...and the adaptive prefix is literally a prefix of the same
    // derived injection sequence, so the two estimates are close.
    EXPECT_NEAR(sa.avfFi, se.avfFi, sa.achievedMargin + 1e-12);
}

TEST(AdaptiveCampaign, OrchestratorMatchesStandaloneCampaign)
{
    // The orchestrated adaptive path and the standalone runCampaign()
    // adaptive path share the schedule, the stopping rule, and the
    // (seed, index) derivation — same stopping point, same counts.
    StudySpec spec = adaptiveMiniSpec();
    spec.workloads = {"vectoradd"};
    spec.structures = {TargetStructure::VectorRegisterFile};
    const StudyResult result = runStudy(spec);
    const StructureReport& sr = result.reports.front().forStructure(
        TargetStructure::VectorRegisterFile);

    const GpuConfig& cfg = gpuConfig(GpuModel::QuadroFx5600);
    const auto workload = makeWorkload("vectoradd");
    WorkloadParams params;
    params.seed = spec.workloadSeed;
    const WorkloadInstance inst = workload->build(cfg.dialect, params);
    CampaignConfig cc;
    cc.plan = spec.plan;
    cc.seed = deriveSeed(spec.seed,
                         static_cast<std::uint64_t>(
                             TargetStructure::VectorRegisterFile));
    cc.numThreads = 1;
    const CampaignResult fi =
        runCampaign(cfg, inst, TargetStructure::VectorRegisterFile, cc);

    EXPECT_EQ(sr.injections, fi.injections);
    EXPECT_EQ(sr.avfFi, fi.avf());
    EXPECT_EQ(sr.sdcRate, fi.sdcRate());
    EXPECT_EQ(sr.dueRate, fi.dueRate());
    EXPECT_EQ(sr.achievedMargin, fi.achievedMargin());
    EXPECT_EQ(sr.avfCi.lo, fi.avfInterval().lo);
    EXPECT_EQ(sr.avfCi.hi, fi.avfInterval().hi);
}

TEST(AdaptiveCampaign, JobsAndShardsDoNotChangeStoppingPoints)
{
    StudySpec serial = adaptiveMiniSpec();
    serial.jobs = 1;
    serial.shardsPerCampaign = 1;
    const StudyResult a = runStudy(serial);

    StudySpec wide = adaptiveMiniSpec();
    wide.jobs = 8;
    wide.shardsPerCampaign = 8;
    const StudyResult b = runStudy(wide);

    expectIdenticalReports(a, b);
}

TEST(AdaptiveCampaign, KillAndResumeIsBitIdentical)
{
    const std::string path = tempStorePath("resume");

    StudySpec first = adaptiveMiniSpec();
    first.jobs = 1;
    first.shardsPerCampaign = 4;
    first.storePath = path;
    StudyProgress full_progress;
    const StudyResult full = runStudy(first, &full_progress);
    EXPECT_GT(full_progress.prunedShards, 0u)
        << "mini spec unexpectedly ran to its cap everywhere";

    // Kill mid-cell: keep the header plus a prefix of the records (the
    // middle of some campaign's batch sequence), plus a truncated tail
    // line as a real kill would leave.
    std::vector<std::string> lines;
    {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line))
            if (!line.empty())
                lines.push_back(line);
    }
    ASSERT_GT(lines.size(), 5u);
    {
        std::ofstream out(path, std::ios::trunc);
        for (std::size_t i = 0; i < 4; ++i)
            out << lines[i] << '\n';
        out << lines[4].substr(0, lines[4].size() / 2);
    }

    StudySpec second = adaptiveMiniSpec();
    second.jobs = 8; // resume at a different job count
    second.shardsPerCampaign = 4;
    second.storePath = path;
    second.resume = true;
    StudyProgress resumed_progress;
    const StudyResult resumed = runStudy(second, &resumed_progress);
    EXPECT_EQ(resumed_progress.resumedShards, 3u);
    expectIdenticalReports(full, resumed);

    // A fully-populated store resumes every executed shard and prunes
    // the same ones.
    StudyProgress third_progress;
    const StudyResult third = runStudy(second, &third_progress);
    EXPECT_EQ(third_progress.executedShards, 0u);
    EXPECT_EQ(third_progress.resumedShards,
              full_progress.executedShards);
    EXPECT_EQ(third_progress.prunedShards, full_progress.prunedShards);
    expectIdenticalReports(full, third);

    // And a different shard split against the same store recomputes
    // (keys do not match) but still lands on identical numbers.
    StudySpec resharded = adaptiveMiniSpec();
    resharded.jobs = 4;
    resharded.shardsPerCampaign = 2;
    resharded.storePath = path;
    resharded.resume = true;
    const StudyResult reshard = runStudy(resharded);
    expectIdenticalReports(full, reshard);
    std::remove(path.c_str());
}

TEST(AdaptiveCampaign, ProgressAccountingCoversEveryShard)
{
    StudySpec spec = adaptiveMiniSpec();
    spec.jobs = 4;
    StudyProgress progress;
    runStudy(spec, &progress);
    EXPECT_EQ(progress.executedShards + progress.resumedShards +
                  progress.prunedShards,
              progress.totalShards);
    EXPECT_EQ(progress.resumedShards, 0u);
    // The worst case is the full decomposition.
    EXPECT_EQ(progress.totalShards, decomposeStudy(spec).size());
}

TEST(AdaptiveCampaign, AdaptiveSpecRoundTripsThroughJson)
{
    const StudySpec spec = adaptiveMiniSpec();
    const StudySpec back = StudySpec::fromJson(spec.toJsonString());
    EXPECT_TRUE(back == spec);
    EXPECT_EQ(back.campaignHash(), spec.campaignHash());

    // The adaptive fields are campaign identity: changing the margin or
    // the cap changes the hash; a fixed-N spec's hash is untouched by
    // the (unused) adaptive defaults.
    StudySpec tightened = spec;
    tightened.plan.margin = 0.05;
    EXPECT_NE(tightened.campaignHash(), spec.campaignHash());
    StudySpec recapped = spec;
    recapped.plan.maxInjections = 150;
    EXPECT_NE(recapped.campaignHash(), spec.campaignHash());

    // Validation: a cap without a margin is a spec error.
    StudySpec bad = spec;
    bad.plan.margin = 0.0;
    EXPECT_THROW(bad.validate(), FatalError);
}

} // namespace
} // namespace gpr
