/** @file End-to-end tests of the ReliabilityFramework facade. */

#include <gtest/gtest.h>

#include <sstream>

#include "core/framework.hh"

namespace gpr {
namespace {

StudySpec
aceOnlySpec()
{
    StudySpec spec;
    spec.aceOnly = true;
    return spec;
}

TEST(Framework, AceOnlyAnalysisIsFastAndComplete)
{
    ReliabilityFramework fw(GpuModel::GeforceGtx480);
    const ReliabilityReport r =
        fw.analyze("reduction", aceOnlySpec());

    EXPECT_EQ(r.workload, "reduction");
    EXPECT_EQ(r.gpuName, "GeForce GTX 480");
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.execSeconds, 0.0);
    EXPECT_GT(r.ipc, 0.0);

    const StructureReport& rf =
        r.forStructure(TargetStructure::VectorRegisterFile);
    const StructureReport& lm =
        r.forStructure(TargetStructure::SharedMemory);
    EXPECT_TRUE(rf.applicable);
    EXPECT_GT(rf.avfAce, 0.0);
    EXPECT_EQ(rf.injections, 0u); // no FI in aceOnly mode

    EXPECT_TRUE(lm.applicable); // reduction uses smem
    EXPECT_FALSE(
        r.forStructure(TargetStructure::ScalarRegisterFile).applicable);

    // The control-state targets are registered and reported too.
    EXPECT_TRUE(
        r.forStructure(TargetStructure::PredicateFile).applicable);
    EXPECT_TRUE(r.forStructure(TargetStructure::SimtStack).applicable);
    EXPECT_GT(r.forStructure(TargetStructure::SimtStack).avfAce, 0.0);

    // EPF assembled from the ACE AVFs.
    const EpfResult check =
        computeEpf(fw.config(), r.cycles, rf.avfAce, lm.avfAce, 0.0);
    EXPECT_DOUBLE_EQ(r.epf.fitTotal(), check.fitTotal());
    EXPECT_DOUBLE_EQ(r.epf.eit, check.eit);
}

TEST(Framework, FiAnalysisPopulatesCampaignFields)
{
    ReliabilityFramework fw(GpuModel::QuadroFx5600);
    StudySpec spec;
    spec.plan.injections = 40;
    const ReliabilityReport r = fw.analyze("vectoradd", spec);

    const StructureReport& rf =
        r.forStructure(TargetStructure::VectorRegisterFile);
    EXPECT_EQ(rf.injections, 40u);
    EXPECT_GT(rf.fiErrorMargin, 0.0);
    EXPECT_GE(rf.avfFi, 0.0);
    EXPECT_LE(rf.avfFi, 1.0);
    EXPECT_NEAR(rf.avfFi, rf.sdcRate + rf.dueRate, 1e-12);
    // vectoradd has no smem
    EXPECT_FALSE(
        r.forStructure(TargetStructure::SharedMemory).applicable);
    EXPECT_GT(rf.occupancy, 0.0);
}

TEST(Framework, ScalarFileReportedOnAmd)
{
    ReliabilityFramework fw(GpuModel::HdRadeon7970);
    const ReliabilityReport r =
        fw.analyze("vectoradd", aceOnlySpec());
    const StructureReport& srf =
        r.forStructure(TargetStructure::ScalarRegisterFile);
    EXPECT_TRUE(srf.applicable);
    EXPECT_GE(srf.avfAce, 0.0);
}

TEST(Framework, BuildInstanceUsesDeviceDialect)
{
    ReliabilityFramework amd(GpuModel::HdRadeon7970);
    EXPECT_EQ(amd.buildInstance("scan").program.dialect(),
              IsaDialect::SouthernIslands);
    ReliabilityFramework nv(GpuModel::QuadroFx5800);
    EXPECT_EQ(nv.buildInstance("scan").program.dialect(),
              IsaDialect::Cuda);
}

TEST(Framework, UnknownWorkloadIsFatal)
{
    ReliabilityFramework fw(GpuModel::GeforceGtx480);
    EXPECT_THROW(fw.analyze("bogus"), FatalError);
}

TEST(Framework, SummaryPrintsAllSections)
{
    ReliabilityFramework fw(GpuModel::GeforceGtx480);
    const ReliabilityReport r =
        fw.analyze("matrixMul", aceOnlySpec());
    std::ostringstream os;
    r.printSummary(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("matrixMul on GeForce GTX 480"),
              std::string::npos);
    EXPECT_NE(text.find("register-file"), std::string::npos);
    EXPECT_NE(text.find("local-memory"), std::string::npos);
    EXPECT_NE(text.find("predicate-file"), std::string::npos);
    EXPECT_NE(text.find("simt-stack"), std::string::npos);
    EXPECT_NE(text.find("EPF"), std::string::npos);
}

} // namespace
} // namespace gpr
