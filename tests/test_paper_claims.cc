/** @file Integration tests asserting the paper's qualitative findings on
 *  the reproduction — the scientific acceptance tests.
 *
 *  These use a 2-SM device and moderate injection counts so they stay
 *  fast; margins in the assertions account for the sampling error.
 */

#include <gtest/gtest.h>

#include "core/orchestrator.hh"
#include "reliability/ace.hh"
#include "reliability/campaign.hh"
#include "reliability/fit_epf.hh"
#include "sim_test_util.hh"
#include "workloads/workloads.hh"

namespace gpr {
namespace {

struct Measured
{
    double avf_fi = 0.0;
    double margin = 0.0;
    double avf_ace = 0.0;
    double occupancy = 0.0;
};

Measured
measure(const GpuConfig& cfg, const char* workload, TargetStructure s,
        std::size_t n)
{
    const auto wl = makeWorkload(workload);
    const WorkloadInstance inst = wl->build(cfg.dialect, {});
    CampaignConfig cc;
    cc.plan.injections = n;
    cc.seed = 0x7357;
    const CampaignResult fi = runCampaign(cfg, inst, s, cc);
    Measured m;
    m.avf_fi = fi.avf();
    m.margin = fi.errorMargin();
    m.avf_ace = fi.ace.forStructure(s).avf();
    m.occupancy = s == TargetStructure::VectorRegisterFile
                      ? fi.ace.goldenStats.avgRegFileOccupancy
                      : fi.ace.goldenStats.avgSmemOccupancy;
    return m;
}

/** Finding: ACE analysis never undershoots FI beyond sampling noise and
 *  significantly overestimates the register file. */
TEST(PaperClaims, AceDominatesFiOnRegisterFile)
{
    const GpuConfig cfg = test::smallCudaConfig();
    for (const char* wl : {"kmeans", "reduction", "vectoradd"}) {
        const Measured m = measure(cfg, wl,
                                   TargetStructure::VectorRegisterFile,
                                   150);
        EXPECT_GE(m.avf_ace, m.avf_fi - m.margin - 0.02) << wl;
    }
    // kmeans (argmin masking) shows the overestimate clearly.
    const Measured km =
        measure(cfg, "kmeans", TargetStructure::VectorRegisterFile, 150);
    EXPECT_GT(km.avf_ace, km.avf_fi + 0.03)
        << "expected a visible ACE overestimate on kmeans";
}

/** Finding: for local memory, ACE is close to FI. */
TEST(PaperClaims, AceMatchesFiOnLocalMemory)
{
    const GpuConfig cfg = test::smallCudaConfig();
    for (const char* wl : {"transpose", "scan"}) {
        const Measured m =
            measure(cfg, wl, TargetStructure::SharedMemory, 150);
        EXPECT_NEAR(m.avf_ace, m.avf_fi, m.margin + 0.05) << wl;
    }
}

/** Finding: AVF is bounded by (and tracks) structure occupancy. */
TEST(PaperClaims, AvfBoundedByOccupancy)
{
    const GpuConfig cfg = test::smallCudaConfig();
    for (const char* wl : {"vectoradd", "scan", "histogram"}) {
        const Measured rf = measure(
            cfg, wl, TargetStructure::VectorRegisterFile, 120);
        EXPECT_LE(rf.avf_fi, rf.occupancy + rf.margin + 0.02) << wl;
        EXPECT_LE(rf.avf_ace, rf.occupancy + 0.02) << wl;
    }
}

/** Finding: AVF varies across benchmarks on the same GPU. */
TEST(PaperClaims, AvfVariesAcrossBenchmarks)
{
    const GpuConfig cfg = test::smallCudaConfig();
    double lo = 2.0, hi = -1.0;
    for (const char* wl : {"vectoradd", "matrixMul", "kmeans"}) {
        const auto workload = makeWorkload(wl);
        const WorkloadInstance inst = workload->build(cfg.dialect, {});
        const AceResult ace = runAceAnalysis(cfg, inst);
        lo = std::min(
            lo, ace.forStructure(TargetStructure::VectorRegisterFile)
                    .avf());
        hi = std::max(
            hi, ace.forStructure(TargetStructure::VectorRegisterFile)
                    .avf());
    }
    EXPECT_GT(hi - lo, 0.05)
        << "register-file AVF should vary clearly across benchmarks";
}

/**
 * Finding: ACE analysis is orders of magnitude cheaper than FI — *as
 * the paper's tools run FI*, i.e. every injection simulated from
 * scratch (checkpoints = 0).  The checkpoint-restore engine has since
 * overturned this cost ratio (see bench/injection_throughput.cc), so
 * the claim is pinned to the legacy engine it was made about.
 */
TEST(PaperClaims, AceIsMuchCheaperThanFi)
{
    const GpuConfig cfg = test::smallCudaConfig();
    const auto wl = makeWorkload("vectoradd");
    const WorkloadInstance inst = wl->build(cfg.dialect, {});
    CampaignConfig cc;
    cc.plan.injections = 100;
    cc.checkpoints = 0; // the paper's from-scratch FI methodology
    const CampaignResult fi =
        runCampaign(cfg, inst, TargetStructure::VectorRegisterFile, cc);
    EXPECT_LT(fi.ace.wallSeconds * 5, fi.wallSeconds)
        << "ACE must be much cheaper than a 100-injection campaign";
}

/**
 * Footnote 4, pinned: "2,000 fault injections per hardware structure
 * ... statistically provides 2.88% error margin for 99% confidence
 * level."  bench/footnote_sampling.cc renders these numbers; this pins
 * them to the sampling subsystem so a statistics regression (or a
 * quantile-approximation swap) fails loudly.
 */
TEST(PaperClaims, Footnote4SamplePlanNumbers)
{
    const SamplePlan paper = paperSamplePlan();
    ASSERT_EQ(paper.injections, 2000u);
    ASSERT_DOUBLE_EQ(paper.confidence, 0.99);
    // 2.88% to the printed precision of the footnote.
    EXPECT_NEAR(paper.errorMargin(), 0.0288, 5e-5);

    // Inverting the footnote's margin recovers the footnote's n
    // exactly, and the resulting plan honours its target.
    EXPECT_EQ(planForMargin(0.0288, 0.99).injections, 2000u);
    EXPECT_LE(planForMargin(0.0288, 0.99).errorMargin(), 0.0288);

    // An adaptive campaign at the footnote's precision can never
    // exceed the footnote's budget — the cap defaults to the same n.
    EXPECT_EQ(adaptivePlan(0.0288, 0.99).resolvedMaxInjections(), 2000u);

    // The Wilson interval the campaigns report is consistent with the
    // worst-case formula at p = 0.5: at the formula's own derivation
    // point the half-width matches the quoted margin up to Wilson's
    // finite-n shrinkage (z^2/n correction, ~5e-5 at n = 2000).
    const Interval half =
        wilsonInterval(1000, paper.injections, paper.confidence);
    EXPECT_NEAR(half.width() / 2.0, paper.errorMargin(), 1e-4);
}

/** Finding: EPF sits in the paper's 1e12..1e16 band for real chips. */
TEST(PaperClaims, EpfInPaperRange)
{
    for (GpuModel model :
         {GpuModel::QuadroFx5600, GpuModel::GeforceGtx480}) {
        const GpuConfig& cfg = gpuConfig(model);
        const auto wl = makeWorkload("reduction");
        const WorkloadInstance inst = wl->build(cfg.dialect, {});
        const AceResult ace = runAceAnalysis(cfg, inst);
        const EpfResult epf = computeEpf(
            cfg, ace.goldenStats.cycles,
            ace.forStructure(TargetStructure::VectorRegisterFile).avf(),
            ace.forStructure(TargetStructure::SharedMemory).avf());
        EXPECT_GT(epf.epf(), 1e12) << cfg.name;
        EXPECT_LT(epf.epf(), 1e17) << cfg.name;
    }
}

/** Finding (cross-vendor): the same benchmark yields different AVFs on
 *  different architectures — the reason the comparison matters. */
TEST(PaperClaims, AvfDiffersAcrossArchitectures)
{
    const auto wl = makeWorkload("vectoradd");

    GpuConfig small_g80 = gpuConfig(GpuModel::QuadroFx5600);
    small_g80.numSms = 2;
    const WorkloadInstance nv_inst = wl->build(small_g80.dialect, {});
    const AceResult nv = runAceAnalysis(small_g80, nv_inst);

    GpuConfig small_tahiti = test::smallSiConfig();
    const WorkloadInstance amd_inst =
        wl->build(small_tahiti.dialect, {});
    const AceResult amd = runAceAnalysis(small_tahiti, amd_inst);

    // G80's tiny register file concentrates live state: higher AVF than
    // Tahiti's huge file at the same benchmark.
    EXPECT_GT(nv.forStructure(TargetStructure::VectorRegisterFile).avf(),
              amd.forStructure(TargetStructure::VectorRegisterFile).avf());
}

} // namespace
} // namespace gpr
