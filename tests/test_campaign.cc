/** @file Tests for statistical FI campaigns. */

#include <gtest/gtest.h>

#include "common/worker_pool.hh"
#include "reliability/campaign.hh"
#include "sim_test_util.hh"
#include "workloads/workloads.hh"

namespace gpr {
namespace {

CampaignResult
smallCampaign(std::size_t n, unsigned threads, std::uint64_t seed = 0xAB,
              bool keep = false)
{
    const GpuConfig cfg = test::smallCudaConfig();
    const auto wl = makeWorkload("vectoradd");
    const WorkloadInstance inst = wl->build(cfg.dialect, {});
    CampaignConfig cc;
    cc.plan.injections = n;
    cc.numThreads = threads;
    cc.seed = seed;
    cc.keepRecords = keep;
    return runCampaign(cfg, inst, TargetStructure::VectorRegisterFile, cc);
}

TEST(Campaign, ZeroInjectionsYieldsEmptyResult)
{
    const CampaignResult r = smallCampaign(0, 1);
    EXPECT_EQ(r.injections, 0u);
    EXPECT_EQ(r.avf(), 0.0);
    EXPECT_GT(r.goldenStats.cycles, 0u); // golden still ran
}

TEST(Campaign, CountsAreConsistent)
{
    const CampaignResult r = smallCampaign(60, 2);
    EXPECT_EQ(r.masked + r.sdc + r.due, 60u);
    EXPECT_GE(r.avf(), 0.0);
    EXPECT_LE(r.avf(), 1.0);
    EXPECT_NEAR(r.avf(), r.sdcRate() + r.dueRate(), 1e-12);
    EXPECT_GT(r.wallSeconds, 0.0);
}

TEST(Campaign, ThreadCountDoesNotChangeResults)
{
    const CampaignResult a = smallCampaign(50, 1, 7);
    const CampaignResult b = smallCampaign(50, 2, 7);
    EXPECT_EQ(a.masked, b.masked);
    EXPECT_EQ(a.sdc, b.sdc);
    EXPECT_EQ(a.due, b.due);
}

TEST(Campaign, SeedChangesSamples)
{
    const CampaignResult a = smallCampaign(80, 2, 1);
    const CampaignResult b = smallCampaign(80, 2, 2);
    // Different seeds explore different fault sets; identical triples
    // would be suspicious (not impossible, but with 80 samples over a
    // multi-megabit space the masked counts almost surely differ).
    const bool identical =
        a.masked == b.masked && a.sdc == b.sdc && a.due == b.due;
    if (identical) {
        // Accept only if both campaigns are fully masked (tiny AVF).
        EXPECT_EQ(a.sdc + a.due, 0u);
    }
}

TEST(Campaign, SameSeedReproduces)
{
    const CampaignResult a = smallCampaign(50, 2, 123);
    const CampaignResult b = smallCampaign(50, 2, 123);
    EXPECT_EQ(a.masked, b.masked);
    EXPECT_EQ(a.sdc, b.sdc);
    EXPECT_EQ(a.due, b.due);
}

TEST(Campaign, RecordsKeptWhenRequested)
{
    const CampaignResult r = smallCampaign(30, 2, 5, true);
    ASSERT_EQ(r.records.size(), 30u);
    std::size_t masked = 0, sdc = 0, due = 0;
    for (const InjectionResult& rec : r.records) {
        switch (rec.outcome) {
          case FaultOutcome::Masked:
            ++masked;
            break;
          case FaultOutcome::Sdc:
            ++sdc;
            break;
          case FaultOutcome::Due:
            ++due;
            break;
        }
        EXPECT_EQ(rec.fault.structure,
                  TargetStructure::VectorRegisterFile);
    }
    EXPECT_EQ(masked, r.masked);
    EXPECT_EQ(sdc, r.sdc);
    EXPECT_EQ(due, r.due);
}

TEST(Campaign, MarginMatchesPlanFormula)
{
    const CampaignResult r = smallCampaign(100, 2);
    // Wald margin at the measured AVF is never larger than worst-case.
    EXPECT_LE(r.errorMargin(),
              proportionErrorMargin(100, r.confidence) + 1e-12);
    const Interval w = r.avfInterval();
    EXPECT_GE(w.lo, 0.0);
    EXPECT_LE(w.hi, 1.0);
    EXPECT_LE(w.lo, r.avf() + 1e-12);
    EXPECT_GE(w.hi, r.avf() - 1e-12);
}

TEST(Campaign, RunsFromInsideAPoolTask)
{
    // A campaign started from a pool task fans out on a pool of its
    // own: it neither deadlocks nor changes a count.
    const GpuConfig& cfg = gpuConfig(GpuModel::QuadroFx5600);
    const WorkloadInstance inst =
        makeWorkload("vectoradd")->build(cfg.dialect, {});
    CampaignConfig cc;
    cc.plan.injections = 60;
    cc.numThreads = 2;
    const CampaignResult direct =
        runCampaign(cfg, inst, TargetStructure::VectorRegisterFile, cc);

    CampaignResult nested;
    {
        WorkerPool pool(1);
        pool.submit([&] {
            nested = runCampaign(cfg, inst,
                                 TargetStructure::VectorRegisterFile, cc);
        });
        pool.waitIdle();
    }
    EXPECT_EQ(nested.injections, 60u);
    EXPECT_EQ(nested.masked, direct.masked);
    EXPECT_EQ(nested.sdc, direct.sdc);
    EXPECT_EQ(nested.due, direct.due);
}

TEST(Campaign, WorkerErrorsReachTheCaller)
{
    // An error on a pool worker is rethrown to the caller, never left
    // to terminate the process from a worker thread.
    const GpuConfig& cfg = gpuConfig(GpuModel::GeforceGtx480);
    const WorkloadInstance inst =
        makeWorkload("vectoradd")->build(cfg.dialect, {});
    CampaignConfig cc;
    cc.plan.injections = 8;
    for (unsigned threads : {1u, 2u}) {
        cc.numThreads = threads;
        // NVIDIA GPUs have no scalar register file to inject into.
        EXPECT_THROW(runCampaign(cfg, inst,
                                 TargetStructure::ScalarRegisterFile, cc),
                     PanicError)
            << threads << " threads";
    }
}

TEST(Campaign, OutcomeNames)
{
    EXPECT_EQ(faultOutcomeName(FaultOutcome::Masked), "masked");
    EXPECT_EQ(faultOutcomeName(FaultOutcome::Sdc), "SDC");
    EXPECT_EQ(faultOutcomeName(FaultOutcome::Due), "DUE");
}

} // namespace
} // namespace gpr
