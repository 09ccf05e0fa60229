/** @file Tests for the cross-architecture comparison study driver. */

#include <gtest/gtest.h>

#include <sstream>

#include "core/orchestrator.hh"

namespace gpr {
namespace {

StudySpec
tinyStudy()
{
    StudySpec spec;
    spec.workloads = {"vectoradd", "reduction"};
    spec.gpus = {GpuModel::QuadroFx5600, GpuModel::GeforceGtx480};
    spec.aceOnly = true;
    spec.verbose = false;
    return spec;
}

TEST(ComparisonStudy, ShapeAndIndexing)
{
    const StudyResult study = runStudy(tinyStudy());
    ASSERT_EQ(study.workloads.size(), 2u);
    ASSERT_EQ(study.gpus.size(), 2u);
    ASSERT_EQ(study.reports.size(), 4u);
    EXPECT_EQ(study.at(0, 0).workload, "vectoradd");
    EXPECT_EQ(study.at(0, 1).gpuName, "GeForce GTX 480");
    EXPECT_EQ(study.at(1, 0).workload, "reduction");
    EXPECT_THROW(study.at(2, 0), PanicError);
}

TEST(ComparisonStudy, Figure1HasRowPerCellPlusAverages)
{
    const StudyResult study = runStudy(tinyStudy());
    const TextTable fig1 = study.figure1();
    // 2 workloads x 2 gpus + 2 average rows; columns gained the FI
    // confidence-interval error bar.
    EXPECT_EQ(fig1.rowCount(), 6u);
    EXPECT_EQ(fig1.columnCount(), 6u);
}

TEST(ComparisonStudy, Figure2OnlyLocalMemoryBenchmarks)
{
    const StudyResult study = runStudy(tinyStudy());
    const TextTable fig2 = study.figure2();
    // Only 'reduction' uses local memory: 1 workload x 2 gpus + 2 avgs.
    EXPECT_EQ(fig2.rowCount(), 4u);
}

TEST(ComparisonStudy, Figure3CoversAllCells)
{
    const StudyResult study = runStudy(tinyStudy());
    const TextTable fig3 = study.figure3();
    EXPECT_EQ(fig3.rowCount(), 4u);
    EXPECT_EQ(fig3.columnCount(), 7u); // incl. the EPF CI error bar
}

TEST(ComparisonStudy, ClaimsComputable)
{
    const StudyResult study = runStudy(tinyStudy());
    const auto claims = study.claims();
    EXPECT_GE(claims.rfAvfOccupancyCorrelation, -1.0);
    EXPECT_LE(claims.rfAvfOccupancyCorrelation, 1.0);
    EXPECT_GT(claims.aceSecondsTotal, 0.0);

    std::ostringstream os;
    study.printClaims(os);
    EXPECT_NE(os.str().find("occupancy"), std::string::npos);
}

TEST(ComparisonStudy, DefaultsCoverFullGrid)
{
    // Don't run it (expensive) — just check the spec defaults resolve
    // to the paper's full grid.
    const StudySpec spec;
    EXPECT_TRUE(spec.workloads.empty());
    EXPECT_TRUE(spec.gpus.empty());
    EXPECT_EQ(spec.resolvedWorkloads().size(), 10u);
    EXPECT_EQ(spec.resolvedGpus().size(), 4u);
}

TEST(ComparisonStudy, SmallFiStudyProducesMargins)
{
    StudySpec spec = tinyStudy();
    spec.aceOnly = false;
    spec.plan.injections = 25;
    spec.workloads = {"vectoradd"};
    const StudyResult study = runStudy(spec);
    for (const auto& rep : study.reports) {
        const StructureReport& rf =
            rep.forStructure(TargetStructure::VectorRegisterFile);
        EXPECT_EQ(rf.injections, 25u);
        EXPECT_GT(rf.fiErrorMargin, 0.0);
    }
}

TEST(ComparisonStudy, StructureRestrictionMatchesFullSlice)
{
    // A --structures restricted study reproduces the matching slice of
    // the unrestricted study bit-for-bit (per-structure campaign seeds
    // are independent), and leaves excluded structures FI-free.
    StudySpec all = tinyStudy();
    all.aceOnly = false;
    all.plan.injections = 20;
    all.workloads = {"vectoradd"};
    all.gpus = {GpuModel::GeforceGtx480};
    StudySpec only_pred = all;
    only_pred.structures = {TargetStructure::PredicateFile};

    const StudyResult full = runStudy(all);
    const StudyResult restricted = runStudy(only_pred);
    ASSERT_EQ(full.reports.size(), 1u);
    ASSERT_EQ(restricted.reports.size(), 1u);

    const auto& fp =
        full.reports[0].forStructure(TargetStructure::PredicateFile);
    const auto& rp =
        restricted.reports[0].forStructure(TargetStructure::PredicateFile);
    EXPECT_EQ(fp.sdcRate, rp.sdcRate);
    EXPECT_EQ(fp.dueRate, rp.dueRate);
    EXPECT_EQ(fp.avfFi, rp.avfFi);
    EXPECT_EQ(fp.injections, rp.injections);

    const auto& rf = restricted.reports[0].forStructure(
        TargetStructure::VectorRegisterFile);
    EXPECT_EQ(rf.injections, 0u); // excluded: ACE only
    EXPECT_GT(rf.avfAce, 0.0);

    // The FIT/EPF roll-up of an excluded storage structure falls back
    // to its ACE AVF — never a bogus "measured zero".
    EXPECT_GT(restricted.reports[0].epf.fitRegisterFile, 0.0);
}

} // namespace
} // namespace gpr
