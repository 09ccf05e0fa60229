/** @file Tests for the sharded study orchestrator. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "common/statistics.hh"
#include "core/export.hh"
#include "core/orchestrator.hh"
#include "reliability/campaign.hh"
#include "workloads/workloads.hh"

namespace gpr {
namespace {

StudySpec
miniStudy(std::size_t injections = 24)
{
    return StudySpecBuilder()
        .workloads({"vectoradd", "reduction"})
        .gpu(GpuModel::QuadroFx5600)
        .injections(injections)
        .verbose(false)
        .build();
}

/** @p spec with its execution knobs set. */
StudySpec
withExecution(StudySpec spec, unsigned jobs, std::size_t shards,
              std::string store = {}, bool resume = false)
{
    spec.jobs = jobs;
    spec.shardsPerCampaign = shards;
    spec.storePath = std::move(store);
    spec.resume = resume;
    return spec;
}

std::string
tempStorePath(const char* name)
{
    return testing::TempDir() + "gpr_orchestrator_" + name + ".jsonl";
}

std::vector<std::string>
storeLines(const std::string& path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

void
expectIdenticalReports(const StudyResult& a, const StudyResult& b)
{
    ASSERT_EQ(a.reports.size(), b.reports.size());
    for (std::size_t i = 0; i < a.reports.size(); ++i) {
        const ReliabilityReport& ra = a.reports[i];
        const ReliabilityReport& rb = b.reports[i];
        EXPECT_EQ(ra.workload, rb.workload);
        EXPECT_EQ(ra.gpuName, rb.gpuName);
        EXPECT_EQ(ra.cycles, rb.cycles);
        auto same_structure = [](const StructureReport& sa,
                                 const StructureReport& sb) {
            EXPECT_EQ(sa.applicable, sb.applicable);
            EXPECT_EQ(sa.avfFi, sb.avfFi);
            EXPECT_EQ(sa.sdcRate, sb.sdcRate);
            EXPECT_EQ(sa.dueRate, sb.dueRate);
            EXPECT_EQ(sa.avfAce, sb.avfAce);
            EXPECT_EQ(sa.injections, sb.injections);
        };
        ASSERT_EQ(ra.structures.size(), rb.structures.size());
        for (std::size_t k = 0; k < ra.structures.size(); ++k)
            same_structure(ra.structures[k], rb.structures[k]);
        EXPECT_EQ(ra.epf.epf(), rb.epf.epf());
        EXPECT_EQ(ra.epf.fitTotal(), rb.epf.fitTotal());
    }
}

TEST(Decomposition, PartitionsEveryCampaignPlan)
{
    const StudySpec study = withExecution(miniStudy(24), 0, 4);
    const std::vector<ShardKey> shards = decomposeStudy(study);

    // vectoradd: RF + the two control targets + the three caches;
    // reduction adds LDS.  FX 5600 has no scalar RF.  13 campaigns x
    // 4 shards.
    ASSERT_EQ(shards.size(), 52u);

    std::map<std::pair<std::string, TargetStructure>, std::uint64_t> next;
    for (const ShardKey& key : shards) {
        EXPECT_EQ(key.gpu, GpuModel::QuadroFx5600);
        EXPECT_EQ(key.campaignSeed,
                  deriveSeed(study.seed,
                             static_cast<std::uint64_t>(key.structure)));
        EXPECT_EQ(key.workloadSeed, study.workloadSeed);
        // Shards of one campaign tile [0, injections) contiguously.
        auto& expected_begin = next[{key.workload, key.structure}];
        EXPECT_EQ(key.injectionBegin, expected_begin);
        EXPECT_LT(key.injectionBegin, key.injectionEnd);
        expected_begin = key.injectionEnd;
    }
    for (const auto& [campaign, end] : next)
        EXPECT_EQ(end, 24u) << campaign.first;
    EXPECT_EQ(next.size(), 13u);
}

TEST(Decomposition, DefaultShardCountIndependentOfJobs)
{
    SamplePlan plan;
    plan.injections = 2000;
    EXPECT_EQ(defaultShardCount(plan), 8u); // 2000 / 250
    plan.injections = 10;
    EXPECT_EQ(defaultShardCount(plan), 1u);
    plan.injections = 0;
    EXPECT_EQ(defaultShardCount(plan), 0u);
    plan.injections = 1000000;
    EXPECT_EQ(defaultShardCount(plan), 64u); // capped
}

TEST(Orchestrator, JobsAndShardsDoNotChangeResults)
{
    const StudySpec study = miniStudy();

    const StudyResult a = runStudy(withExecution(study, 1, 1));
    const StudyResult b = runStudy(withExecution(study, 8, 8));

    expectIdenticalReports(a, b);
    // And the default execution settings (auto jobs/shards) agree too.
    const StudyResult c = runStudy(study);
    expectIdenticalReports(a, c);
}

TEST(Orchestrator, DuplicateGridEntriesShareOneCell)
{
    // Listing the same (workload, GPU) twice must not split or double
    // its shard counts: duplicates share one canonical cell and both
    // grid positions report the single-entry result.
    StudySpec study = withExecution(miniStudy(), 2, 2);
    study.workloads = {"vectoradd", "vectoradd"};
    StudyProgress progress;
    const StudyResult dup = runStudy(study, &progress);
    EXPECT_EQ(progress.goldenRuns, 1u);
    // One cell's campaigns (RF + pred + simt + the three caches), not
    // two cells' worth.
    EXPECT_EQ(progress.totalShards, 12u);

    StudySpec single = study;
    single.workloads = {"vectoradd"};
    const StudyResult one = runStudy(single);
    ASSERT_EQ(dup.reports.size(), 2u);
    for (const ReliabilityReport& r : dup.reports) {
        const StructureReport& rf =
            r.forStructure(TargetStructure::VectorRegisterFile);
        EXPECT_EQ(rf.avfFi,
                  one.reports.front()
                      .forStructure(TargetStructure::VectorRegisterFile)
                      .avfFi);
        EXPECT_EQ(rf.injections, study.plan.injections);
    }
}

TEST(Orchestrator, MatchesStandaloneCampaignEngine)
{
    // The orchestrated register-file numbers must equal a standalone
    // runCampaign() with the same (campaign seed, injection index)
    // derivation — the orchestrator changes scheduling, not sampling.
    StudySpec study = withExecution(miniStudy(), 4, 3);
    study.workloads = {"vectoradd"};
    const StudyResult result = runStudy(study);
    const StructureReport& sr = result.reports.front().forStructure(
        TargetStructure::VectorRegisterFile);

    const GpuConfig& cfg = gpuConfig(GpuModel::QuadroFx5600);
    const auto workload = makeWorkload("vectoradd");
    WorkloadParams params;
    params.seed = study.workloadSeed;
    const WorkloadInstance inst = workload->build(cfg.dialect, params);
    CampaignConfig cc;
    cc.plan = study.plan;
    cc.seed = deriveSeed(study.seed,
                         static_cast<std::uint64_t>(
                             TargetStructure::VectorRegisterFile));
    cc.numThreads = 1;
    const CampaignResult fi =
        runCampaign(cfg, inst, TargetStructure::VectorRegisterFile, cc);

    EXPECT_EQ(sr.avfFi, fi.avf());
    EXPECT_EQ(sr.sdcRate, fi.sdcRate());
    EXPECT_EQ(sr.dueRate, fi.dueRate());
    EXPECT_EQ(sr.fiErrorMargin, fi.errorMargin());
}

TEST(Orchestrator, CheckpointsEveryShardToTheStore)
{
    const std::string path = tempStorePath("checkpoint");
    StudyProgress progress;
    runStudy(withExecution(miniStudy(), 2, 4, path), &progress);

    EXPECT_EQ(progress.totalShards, 52u);
    EXPECT_EQ(progress.executedShards, 52u);
    EXPECT_EQ(progress.resumedShards, 0u);

    // Line 0 is the spec header; the 28 shard records follow.
    const auto lines = storeLines(path);
    ASSERT_EQ(lines.size(), 53u);
    StoreHeader header;
    ASSERT_TRUE(parseStoreHeader(lines.front(), header));
    EXPECT_EQ(header.specHash, miniStudy().campaignHashHex());
    for (std::size_t i = 1; i < lines.size(); ++i) {
        ShardRecord r;
        EXPECT_TRUE(parseShardRecord(lines[i], r)) << lines[i];
    }
    std::remove(path.c_str());
}

TEST(Orchestrator, ResumeSkipsFinishedShardsAndMatchesBitForBit)
{
    const std::string path = tempStorePath("resume");
    const StudySpec study = miniStudy();

    StudyProgress full_progress;
    const StudyResult full =
        runStudy(withExecution(study, 1, 4, path), &full_progress);
    ASSERT_EQ(full_progress.executedShards, 52u);

    // Simulate a kill after 5 shards: keep the header and a record
    // prefix of the store.
    const auto lines = storeLines(path);
    ASSERT_EQ(lines.size(), 53u); // spec header + 52 records
    {
        std::ofstream out(path, std::ios::trunc);
        for (std::size_t i = 0; i < 6; ++i)
            out << lines[i] << '\n';
        // ...plus a truncated tail line, as a real kill would leave.
        out << lines[6].substr(0, lines[6].size() / 2);
    }

    // Resume at a different job count.
    const StudySpec second = withExecution(study, 8, 4, path, true);
    StudyProgress resumed_progress;
    const StudyResult resumed = runStudy(second, &resumed_progress);

    EXPECT_EQ(resumed_progress.resumedShards, 5u);
    EXPECT_EQ(resumed_progress.executedShards, 47u);
    expectIdenticalReports(full, resumed);

    // A third run finds everything done and recomputes nothing.
    StudyProgress third_progress;
    const StudyResult third = runStudy(second, &third_progress);
    EXPECT_EQ(third_progress.resumedShards, 52u);
    EXPECT_EQ(third_progress.executedShards, 0u);
    expectIdenticalReports(full, third);
    std::remove(path.c_str());
}

TEST(Orchestrator, ResumeRefusesAStoreFromADifferentSpec)
{
    const std::string path = tempStorePath("mismatch");
    StudySpec study = withExecution(miniStudy(), 4, 4, path);
    runStudy(study);

    // Same store, different campaign seed: the spec hash mismatches, so
    // resume fails loudly (naming both hashes) instead of silently
    // recomputing — or worse, mixing — two different experiments.
    study.resume = true;
    StudySpec reseeded = study;
    reseeded.seed = 0xDEADBEEF;
    const std::string original_hash = study.campaignHashHex();
    const std::string reseeded_hash = reseeded.campaignHashHex();
    try {
        runStudy(reseeded);
        FAIL() << "expected FatalError on spec-hash mismatch";
    } catch (const FatalError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(original_hash), std::string::npos) << what;
        EXPECT_NE(what.find(reseeded_hash), std::string::npos) << what;
    }

    // Execution knobs are not part of the identity: the same campaign
    // resumes fine at a different job count.
    StudySpec rejobbed = study;
    rejobbed.jobs = 1;
    StudyProgress progress;
    runStudy(rejobbed, &progress);
    EXPECT_EQ(progress.resumedShards, 52u);
    EXPECT_EQ(progress.executedShards, 0u);
    std::remove(path.c_str());
}

TEST(Orchestrator, LegacyHeaderlessStoreResumesWithKeyMatchingOnly)
{
    const std::string path = tempStorePath("legacy");
    StudySpec study = withExecution(miniStudy(), 4, 4, path);
    runStudy(study);

    // Strip the header, as a store written before it existed would be.
    const auto lines = storeLines(path);
    ASSERT_EQ(lines.size(), 53u);
    {
        std::ofstream out(path, std::ios::trunc);
        for (std::size_t i = 1; i < lines.size(); ++i)
            out << lines[i] << '\n';
    }

    // A header-less store loads with a warning; per-key matching still
    // rejects records of a different plan, so a reseeded study simply
    // recomputes everything.
    study.resume = true;
    StudyProgress same_progress;
    runStudy(study, &same_progress);
    EXPECT_EQ(same_progress.resumedShards, 52u);

    // The resume back-fills a header (appended, recognised at any
    // line), so the spec-hash guard is armed again: a doctored spec is
    // now refused instead of sliding through the legacy path.
    bool has_header = false;
    for (const std::string& line : storeLines(path)) {
        StoreHeader h;
        if (parseStoreHeader(line, h)) {
            has_header = true;
            EXPECT_EQ(h.specHash, study.campaignHashHex());
        }
    }
    EXPECT_TRUE(has_header);
    {
        StudySpec doctored = study;
        doctored.seed = 0xBAD;
        EXPECT_THROW(runStudy(doctored), FatalError);
    }

    StudySpec reseeded = study;
    reseeded.seed = 0xDEADBEEF;
    std::remove(path.c_str());
    study.resume = false;
    runStudy(study);
    {
        const auto with_header = storeLines(path);
        std::ofstream out(path, std::ios::trunc);
        for (std::size_t i = 1; i < with_header.size(); ++i)
            out << with_header[i] << '\n';
    }
    StudyProgress reseeded_progress;
    runStudy(reseeded, &reseeded_progress);
    EXPECT_EQ(reseeded_progress.resumedShards, 0u);
    EXPECT_EQ(reseeded_progress.executedShards, 52u);
    std::remove(path.c_str());
}

TEST(Orchestrator, WallSecondsAggregateWithoutDoubleCounting)
{
    StudyProgress progress;
    const StudyResult result =
        runStudy(withExecution(miniStudy(), 4, 4), &progress);

    // Per-campaign fiWallSeconds are sums of per-shard busy time, so the
    // study total equals the orchestrator's busy-seconds tally exactly
    // (nothing is counted once per concurrent campaign).  claims()
    // reduces the series with the fixed-order compensated reducer
    // (lint rule D5), so the expected total goes through the same one.
    std::vector<double> seconds;
    for (const ReliabilityReport& r : result.reports) {
        for (const StructureReport& sr : r.structures)
            seconds.push_back(sr.fiWallSeconds);
        EXPECT_GT(r.forStructure(TargetStructure::VectorRegisterFile)
                      .fiWallSeconds,
                  0.0);
    }
    const double total = fixedOrderSum(seconds);
    EXPECT_NEAR(total, progress.shardBusySeconds,
                1e-9 * std::max(1.0, progress.shardBusySeconds));
    EXPECT_EQ(result.claims().fiSecondsTotal, total);
}

StudySpec
admissionSpec(std::vector<std::string> workloads)
{
    return StudySpecBuilder()
        .workloads(std::move(workloads))
        .gpu(GpuModel::QuadroFx5600)
        .structure(TargetStructure::VectorRegisterFile)
        .injections(12)
        .shardsPerCampaign(3)
        .verbose(false)
        .build();
}

TEST(Orchestrator, AdmissionBoundsLivePacksByJobs)
{
    // Four cells, fewer slots than cells at every job count: a pack is
    // only built for an admitted cell and freed before the next one is
    // admitted, so no more than `jobs` packs are ever alive.
    StudySpec spec =
        admissionSpec({"vectoradd", "reduction", "scan", "histogram"});
    StudyResult reference;
    for (unsigned jobs : {1u, 2u, 3u}) {
        spec.jobs = jobs;
        StudyProgress progress;
        const StudyResult result = runStudy(spec, &progress);
        EXPECT_EQ(progress.checkpointPacks, 4u) << "jobs " << jobs;
        EXPECT_GE(progress.peakLivePacks, 1u) << "jobs " << jobs;
        EXPECT_LE(progress.peakLivePacks, jobs) << "jobs " << jobs;
        EXPECT_GT(progress.packBuildSeconds, 0.0) << "jobs " << jobs;
        // The per-part split is timed inside each build task.
        const PackBuildSeconds& split = progress.packPhaseSeconds;
        EXPECT_GT(split.passA, 0.0) << "jobs " << jobs;
        EXPECT_GT(split.passB, 0.0) << "jobs " << jobs;
        EXPECT_LE(split.passA + split.placement + split.passB,
                  progress.packBuildSeconds)
            << "jobs " << jobs;
        EXPECT_EQ(progress.executedShards, 12u) << "jobs " << jobs;
        if (jobs == 1)
            reference = result;
        else
            expectIdenticalReports(reference, result);
    }

    // The legacy engine records no packs at all.
    spec.checkpoints = 0;
    StudyProgress legacy;
    expectIdenticalReports(reference, runStudy(spec, &legacy));
    EXPECT_EQ(legacy.checkpointPacks, 0u);
    EXPECT_EQ(legacy.peakLivePacks, 0u);
    EXPECT_EQ(legacy.packBuildSeconds, 0.0);
    EXPECT_EQ(legacy.packPhaseSeconds.passA, 0.0);
}

TEST(Orchestrator, ResumedCellsBuildNoPack)
{
    const std::string path = tempStorePath("admission");
    StudySpec spec = admissionSpec({"vectoradd", "reduction", "scan"});
    spec.jobs = 2;
    spec.storePath = path;
    StudyProgress full_progress;
    const StudyResult full = runStudy(spec, &full_progress);
    ASSERT_EQ(full_progress.checkpointPacks, 3u);

    // Keep every vectoradd record (that cell is fully covered) and one
    // reduction record (that cell still has shards to run).
    const auto lines = storeLines(path);
    ASSERT_EQ(lines.size(), 10u); // spec header + 9 records
    std::size_t kept_reduction = 0;
    {
        std::ofstream out(path, std::ios::trunc);
        out << lines.front() << '\n';
        for (std::size_t i = 1; i < lines.size(); ++i) {
            ShardRecord r;
            ASSERT_TRUE(parseShardRecord(lines[i], r));
            if (r.key.workload == "vectoradd" ||
                (r.key.workload == "reduction" && kept_reduction++ == 0))
                out << lines[i] << '\n';
        }
    }

    spec.resume = true;
    StudyProgress resumed_progress;
    const StudyResult resumed = runStudy(spec, &resumed_progress);
    EXPECT_EQ(resumed_progress.resumedShards, 4u);
    EXPECT_EQ(resumed_progress.executedShards, 5u);
    EXPECT_EQ(resumed_progress.checkpointPacks, 2u);
    expectIdenticalReports(full, resumed);

    // Now the store covers every cell: nothing runs, no pack is built.
    StudyProgress third_progress;
    const StudyResult third = runStudy(spec, &third_progress);
    EXPECT_EQ(third_progress.executedShards, 0u);
    EXPECT_EQ(third_progress.checkpointPacks, 0u);
    EXPECT_EQ(third_progress.peakLivePacks, 0u);
    expectIdenticalReports(full, third);
    std::remove(path.c_str());
}

TEST(Orchestrator, AdaptiveStoppingPointsIgnoreAdmissionOrder)
{
    // Longest-first admission reorders the cells' execution; the
    // stopping rule reads only each campaign's ordered prefix, so the
    // stopping points and every interval stay bit-identical.
    StudySpec spec = StudySpecBuilder()
                         .workloads({"vectoradd", "reduction", "scan",
                                     "histogram"})
                         .gpu(GpuModel::QuadroFx5600)
                         .structures({TargetStructure::VectorRegisterFile,
                                      TargetStructure::SimtStack})
                         .margin(0.1)
                         .confidence(0.9)
                         .maxInjections(200)
                         .verbose(false)
                         .build();
    spec.jobs = 1;
    StudyProgress serial_progress;
    const StudyResult serial = runStudy(spec, &serial_progress);
    spec.jobs = 3;
    StudyProgress wide_progress;
    const StudyResult wide = runStudy(spec, &wide_progress);

    EXPECT_GT(serial_progress.prunedShards, 0u)
        << "spec unexpectedly ran to its cap everywhere";
    EXPECT_EQ(serial_progress.prunedShards, wide_progress.prunedShards);
    EXPECT_EQ(serial_progress.injectionsExecuted,
              wide_progress.injectionsExecuted);
    EXPECT_LE(wide_progress.peakLivePacks, 3u);
    expectIdenticalReports(serial, wide);
    ASSERT_EQ(serial.reports.size(), wide.reports.size());
    for (std::size_t i = 0; i < serial.reports.size(); ++i) {
        for (std::size_t k = 0; k < serial.reports[i].structures.size();
             ++k) {
            const StructureReport& a = serial.reports[i].structures[k];
            const StructureReport& b = wide.reports[i].structures[k];
            EXPECT_EQ(a.achievedMargin, b.achievedMargin);
            EXPECT_EQ(a.avfCi.lo, b.avfCi.lo);
            EXPECT_EQ(a.avfCi.hi, b.avfCi.hi);
            EXPECT_EQ(a.sdcCi.lo, b.sdcCi.lo);
            EXPECT_EQ(a.sdcCi.hi, b.sdcCi.hi);
            EXPECT_EQ(a.dueCi.lo, b.dueCi.lo);
            EXPECT_EQ(a.dueCi.hi, b.dueCi.hi);
        }
    }
}

TEST(ShardStore, RecordRoundTrips)
{
    ShardRecord r;
    r.key.workload = "reduction";
    r.key.gpu = GpuModel::HdRadeon7970;
    r.key.structure = TargetStructure::ScalarRegisterFile;
    r.key.shardIndex = 3;
    r.key.injectionBegin = 750;
    r.key.injectionEnd = 1000;
    r.key.campaignSeed = 0xFEEDFACECAFEBEEFULL; // > int64 range
    r.key.workloadSeed = 42;
    r.counts.masked = 200;
    r.counts.sdc = 30;
    r.counts.due = 20;
    r.counts.busySeconds = 1.25;

    std::ostringstream os;
    writeShardRecord(os, r);
    ShardRecord back;
    ASSERT_TRUE(parseShardRecord(os.str(), back));
    EXPECT_TRUE(back.key == r.key);
    EXPECT_EQ(back.counts.masked, r.counts.masked);
    EXPECT_EQ(back.counts.sdc, r.counts.sdc);
    EXPECT_EQ(back.counts.due, r.counts.due);
    EXPECT_EQ(back.counts.busySeconds, r.counts.busySeconds);
}

TEST(ShardStore, RejectsMalformedLines)
{
    ShardRecord r;
    EXPECT_FALSE(parseShardRecord("", r));
    EXPECT_FALSE(parseShardRecord("not json", r));
    EXPECT_FALSE(parseShardRecord(R"({"workload":"x"})", r));

    // A well-formed record...
    ShardRecord good;
    good.key.workload = "vectoradd";
    good.key.gpu = GpuModel::GeforceGtx480;
    good.key.injectionEnd = 10;
    good.counts.masked = 10;
    std::ostringstream os;
    writeShardRecord(os, good);
    ASSERT_TRUE(parseShardRecord(os.str(), r));

    // ...fails once truncated (kill mid-write) ...
    const std::string line = os.str();
    EXPECT_FALSE(parseShardRecord(line.substr(0, line.size() - 5), r));

    // ...or when counts do not cover the stated injection range.
    ShardRecord bad = good;
    bad.counts.masked = 7;
    std::ostringstream os2;
    writeShardRecord(os2, bad);
    EXPECT_FALSE(parseShardRecord(os2.str(), r));
}

TEST(ShardStore, ReaderSkipsBrokenLines)
{
    ShardRecord r;
    r.key.workload = "scan";
    r.key.gpu = GpuModel::QuadroFx5800;
    r.key.injectionEnd = 5;
    r.counts.sdc = 5;
    std::ostringstream os;
    writeShardRecord(os, r);
    const std::string good_line = os.str();

    std::istringstream is("garbage\n" + good_line + "\n" +
                          good_line.substr(0, 20));
    const std::vector<ShardRecord> records = readShardStore(is);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records.front().key.workload, "scan");
}

TEST(WorkerPoolTest, RunsEveryTaskAcrossWaves)
{
    WorkerPool pool(4);
    std::atomic<int> count{0};
    for (int wave = 0; wave < 3; ++wave) {
        for (int i = 0; i < 50; ++i)
            pool.submit([&count] { count.fetch_add(1); });
        pool.waitIdle();
        EXPECT_EQ(count.load(), 50 * (wave + 1));
    }
}

} // namespace
} // namespace gpr
