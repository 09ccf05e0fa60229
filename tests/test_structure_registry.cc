/**
 * @file
 * Tests for the data-driven target-structure registry: name round trips,
 * per-model bit budgets, exactly-once appearance in exports, loud
 * failure on unregistered ids — plus the pinned pre-refactor regression
 * guaranteeing the original three structures' campaign numbers survived
 * the dissolution of the hard-coded triple bit-for-bit.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "core/export.hh"
#include "core/framework.hh"
#include "core/orchestrator.hh"
#include "reliability/campaign.hh"
#include "sim/gpu.hh"
#include "sim/structure_registry.hh"
#include "workloads/workloads.hh"

namespace gpr {
namespace {

TEST(StructureRegistry, EnumOrderedAndComplete)
{
    const auto& registry = structureRegistry();
    ASSERT_EQ(registry.size(), kNumTargetStructures);
    for (std::size_t i = 0; i < registry.size(); ++i)
        EXPECT_EQ(static_cast<std::size_t>(registry[i].id), i);
}

TEST(StructureRegistry, NamesRoundTripAndAreUnique)
{
    std::set<std::string_view> names;
    for (const StructureSpec& spec : structureRegistry()) {
        EXPECT_EQ(targetStructureFromName(spec.name), spec.id);
        EXPECT_EQ(targetStructureFromName(spec.shortName), spec.id);
        EXPECT_EQ(targetStructureName(spec.id), spec.name);
        EXPECT_TRUE(names.insert(spec.name).second) << spec.name;
        EXPECT_TRUE(names.insert(spec.shortName).second) << spec.shortName;
        EXPECT_TRUE(names.insert(spec.jsonKey).second) << spec.jsonKey;
    }

    TargetStructure out;
    EXPECT_FALSE(tryTargetStructureFromName("no-such-structure", out));
    EXPECT_THROW(targetStructureFromName("no-such-structure"), FatalError);
}

TEST(StructureRegistry, BitBudgetsNonzeroWherePresent)
{
    for (GpuModel model : allGpuModels()) {
        const GpuConfig& cfg = gpuConfig(model);
        const Gpu gpu(cfg);
        for (const StructureSpec& spec : structureRegistry()) {
            const std::uint64_t bits = structureBitsTotal(cfg, spec.id);
            EXPECT_EQ(gpu.structureBits(spec.id), bits) << spec.name;
            // The scalar RF is the only structure a chip may lack.
            if (spec.id == TargetStructure::ScalarRegisterFile &&
                cfg.vendor == Vendor::Nvidia) {
                EXPECT_EQ(bits, 0u) << cfg.name;
            } else {
                EXPECT_GT(bits, 0u) << cfg.name << " " << spec.name;
                EXPECT_GT(structureAceUnitsTotal(cfg, spec.id), 0u)
                    << cfg.name << " " << spec.name;
            }
        }
    }
}

TEST(StructureRegistry, ControlBitGeometryMatchesSpecTable)
{
    const GpuConfig& cfg = gpuConfig(GpuModel::GeforceGtx480);
    EXPECT_EQ(structureSpec(TargetStructure::PredicateFile)
                  .bitsPerSm(cfg),
              std::uint64_t{cfg.maxWarpsPerSm} * kNumPredRegs *
                  cfg.warpWidth);
    EXPECT_EQ(structureSpec(TargetStructure::SimtStack).bitsPerSm(cfg),
              std::uint64_t{cfg.maxWarpsPerSm} *
                  (32 + 2 * std::uint64_t{cfg.warpWidth} +
                   kSimtStackDepth * (1 + 32 + cfg.warpWidth)));
}

TEST(StructureRegistry, AceUnitBitWidthsSumToBitBudget)
{
    // Structures with nonuniform ACE units declare per-unit bit widths
    // that must tile the fault space exactly — the weighting that keeps
    // ACE a conservative bound on bit-uniform injection.
    for (GpuModel model : allGpuModels()) {
        const GpuConfig& cfg = gpuConfig(model);
        for (const StructureSpec& spec : structureRegistry()) {
            if (!spec.aceUnitBits)
                continue;
            const auto units =
                static_cast<std::uint32_t>(spec.aceUnitsPerSm(cfg));
            std::uint64_t sum = 0;
            for (std::uint32_t u = 0; u < units; ++u)
                sum += spec.aceUnitBits(cfg, u);
            EXPECT_EQ(sum, spec.bitsPerSm(cfg))
                << cfg.name << " " << spec.name;
        }
    }
}

TEST(StructureRegistry, UnregisteredIdsFailLoudlyEverywhere)
{
    const auto bogus = static_cast<TargetStructure>(250);
    EXPECT_THROW(structureSpec(bogus), FatalError);
    EXPECT_THROW(targetStructureName(bogus), FatalError);

    AceResult ace;
    EXPECT_THROW(ace.forStructure(TargetStructure::VectorRegisterFile),
                 FatalError); // empty result: registry out of sync
    ReliabilityReport report;
    EXPECT_THROW(report.forStructure(TargetStructure::SimtStack),
                 FatalError);
}

/** Every registered structure appears exactly once in the JSON export
 *  and the human-readable summary. */
TEST(StructureRegistry, ExportListsEveryStructureExactlyOnce)
{
    ReliabilityFramework fw(GpuModel::GeforceGtx480);
    StudySpec spec;
    spec.aceOnly = true;
    const ReliabilityReport r = fw.analyze("reduction", spec);

    std::ostringstream json;
    writeReportJson(json, r);
    const std::string jtext = json.str();

    std::ostringstream summary;
    r.printSummary(summary);
    const std::string stext = summary.str();

    auto count = [](const std::string& hay, const std::string& needle) {
        std::size_t n = 0;
        for (auto pos = hay.find(needle); pos != std::string::npos;
             pos = hay.find(needle, pos + needle.size()))
            ++n;
        return n;
    };
    for (const StructureSpec& spec : structureRegistry()) {
        EXPECT_EQ(count(jtext, "\"" + std::string(spec.jsonKey) + "\":{"),
                  1u)
            << spec.jsonKey;
        EXPECT_EQ(count(stext, "  " + std::string(spec.name) + " "), 1u)
            << spec.name;
    }
}

/**
 * Pinned pre-refactor regression: these masked/SDC/DUE counts were
 * captured on the hard-coded three-structure implementation (reduction
 * on the HD Radeon 7970, workload seed 42, campaign seed 0xC0FFEE,
 * 200 injections per structure).  The registry refactor — and any
 * future registry extension — must reproduce them bit-for-bit: the
 * original structures' enum values, bit budgets, sampling and outcome
 * classification are all frozen by this test.
 */
TEST(StructureRegistry, PinnedPreRefactorCampaignCounts)
{
    const GpuConfig& cfg = gpuConfig(GpuModel::HdRadeon7970);
    WorkloadParams params;
    params.seed = 42;
    const WorkloadInstance inst =
        makeWorkload("reduction")->build(cfg.dialect, params);

    struct Pin
    {
        TargetStructure structure;
        std::size_t masked, sdc, due;
    };
    const Pin pins[] = {
        {TargetStructure::VectorRegisterFile, 197, 2, 1},
        {TargetStructure::SharedMemory, 199, 1, 0},
        {TargetStructure::ScalarRegisterFile, 200, 0, 0},
    };

    CampaignConfig cc;
    cc.plan.injections = 200;
    for (const Pin& pin : pins) {
        const CampaignResult r =
            runCampaign(cfg, inst, pin.structure, cc);
        EXPECT_EQ(r.masked, pin.masked)
            << targetStructureName(pin.structure);
        EXPECT_EQ(r.sdc, pin.sdc) << targetStructureName(pin.structure);
        EXPECT_EQ(r.due, pin.due) << targetStructureName(pin.structure);
    }
}

} // namespace
} // namespace gpr
