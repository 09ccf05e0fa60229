/** @file Tests for ACE lifetime accounting, driven both synthetically and
 *  through full simulations. */

#include <gtest/gtest.h>

#include <utility>

#include "reliability/ace.hh"
#include "sim_test_util.hh"
#include "workloads/workloads.hh"

namespace gpr {
namespace {

constexpr auto kRf = TargetStructure::VectorRegisterFile;
constexpr auto kLds = TargetStructure::SharedMemory;

/** Synthetic event streams against a small config. */
class AceSynthetic : public ::testing::Test
{
  protected:
    GpuConfig cfg_ = test::smallCudaConfig();
};

TEST_F(AceSynthetic, WriteThenReadsCountsToLastRead)
{
    AceAnalyzer ace(cfg_, AceMode::Standard);
    ace.onAlloc(kRf, 0, 0, 8, 0);
    ace.onWrite(kRf, 0, 3, 10);
    ace.onRead(kRf, 0, 3, 0, 20);
    ace.onRead(kRf, 0, 3, 0, 50);
    ace.onWrite(kRf, 0, 3, 70); // commits [10, 50]
    ace.onKernelEnd(100);        // second epoch never read: dead
    EXPECT_EQ(ace.aceUnitCycles(kRf), 40u);
}

TEST_F(AceSynthetic, DeadWriteCountsNothing)
{
    AceAnalyzer ace(cfg_, AceMode::Standard);
    ace.onAlloc(kRf, 0, 0, 4, 0);
    ace.onWrite(kRf, 0, 1, 5);
    ace.onWrite(kRf, 0, 1, 25); // overwrite with no read between
    ace.onKernelEnd(50);
    EXPECT_EQ(ace.aceUnitCycles(kRf), 0u);
}

TEST_F(AceSynthetic, ConservativeModeExtendsToOverwrite)
{
    AceAnalyzer ace(cfg_, AceMode::Conservative);
    ace.onAlloc(kRf, 0, 0, 4, 0);
    ace.onWrite(kRf, 0, 1, 10);
    ace.onRead(kRf, 0, 1, 0, 15);
    ace.onWrite(kRf, 0, 1, 60); // conservative: [10, 60]
    ace.onKernelEnd(100);
    EXPECT_EQ(ace.aceUnitCycles(kRf), 50u);
}

TEST_F(AceSynthetic, FreeCommitsPendingInterval)
{
    AceAnalyzer ace(cfg_, AceMode::Standard);
    ace.onAlloc(kLds, 1, 0, 16, 0);
    ace.onWrite(kLds, 1, 2, 10);
    ace.onRead(kLds, 1, 2, 0, 30);
    ace.onFree(kLds, 1, 0, 16, 40); // commits [10, 30]
    ace.onKernelEnd(80);
    EXPECT_EQ(ace.aceUnitCycles(kLds), 20u);
}

TEST_F(AceSynthetic, KernelEndCommitsOpenInterval)
{
    AceAnalyzer ace(cfg_, AceMode::Standard);
    ace.onAlloc(kRf, 0, 0, 4, 0);
    ace.onWrite(kRf, 0, 0, 10);
    ace.onRead(kRf, 0, 0, 0, 90);
    ace.onKernelEnd(100); // commits [10, 90]
    EXPECT_EQ(ace.aceUnitCycles(kRf), 80u);
}

TEST_F(AceSynthetic, ReadOfUninitialisedAllocationIsConservative)
{
    // Allocation opens an epoch; reading it without a program write
    // counts from the alloc (undefined contents could matter).
    AceAnalyzer ace(cfg_, AceMode::Standard);
    ace.onAlloc(kRf, 0, 0, 4, 5);
    ace.onRead(kRf, 0, 2, 0, 35);
    ace.onKernelEnd(50);
    EXPECT_EQ(ace.aceUnitCycles(kRf), 30u);
}

TEST_F(AceSynthetic, SmIndexingSeparatesInstances)
{
    AceAnalyzer ace(cfg_, AceMode::Standard);
    ace.onAlloc(kRf, 0, 0, 4, 0);
    ace.onAlloc(kRf, 1, 0, 4, 0);
    ace.onWrite(kRf, 0, 0, 10);
    ace.onRead(kRf, 1, 0, 0, 40); // different SM: separate word
    ace.onWrite(kRf, 0, 0, 50); // SM0 word unread => dead
    ace.onKernelEnd(60);
    // Only SM1's alloc-to-read interval counts: [0, 40].
    EXPECT_EQ(ace.aceUnitCycles(kRf), 40u);
}

/**
 * Bit weights of the first and the last unit of one instance of @p s,
 * worked out from the registry's unit layouts: a SIMT instance starts
 * with warp slot 0's PC + active/exited masks and ends with the last
 * slot's last (kind, pc, mask) stack entry; a cache starts with line
 * 0's tag/valid/dirty group and ends with the last line's last data
 * word; every other unit weighs 1.
 */
std::pair<std::uint64_t, std::uint64_t>
edgeUnitBits(TargetStructure s, std::uint64_t warp_width)
{
    switch (s) {
      case TargetStructure::SimtStack:
        return {32 + 2 * warp_width, 1 + 32 + warp_width};
      case TargetStructure::L1DataCache:
      case TargetStructure::L1InstructionCache:
      case TargetStructure::L2Cache:
        return {34, 32};
      default:
        return {1, 1};
    }
}

/**
 * The first and last unit of the first and last instance of every
 * structure on two full-size chips: units at the edges of the analyzer's
 * first-touch blocks (a partial last block included) and of the
 * chip-scoped L2, whose events all name SM 0.  Each unit runs alloc,
 * write, two reads, free and kernel end, interleaved with the others'
 * at its own cycles, so two units that shared state would miscount.
 */
TEST(AceUnitTable, EdgeUnitsOfEveryStructure)
{
    struct Probe
    {
        SmId sm;
        std::uint32_t unit;
        std::uint64_t bits;
    };
    for (GpuModel model :
         {GpuModel::HdRadeon7970, GpuModel::GeforceGtx480}) {
        const GpuConfig& cfg = gpuConfig(model);
        for (const StructureSpec& spec : structureRegistry()) {
            SCOPED_TRACE(std::string(spec.shortName) + " on " + cfg.name);
            const auto units =
                static_cast<std::uint32_t>(spec.aceUnitsPerSm(cfg));
            const auto instances =
                static_cast<SmId>(structureInstances(cfg, spec.id));
            if (units == 0) {
                // Absent on this chip: every event is out of range.
                AceAnalyzer ace(cfg, AceMode::Standard);
                EXPECT_THROW(ace.onRead(spec.id, 0, 0, 0, 1), PanicError);
                continue;
            }
            const auto [first_bits, last_bits] =
                edgeUnitBits(spec.id, cfg.warpWidth);
            std::vector<Probe> probes = {{0, 0, first_bits},
                                         {0, units - 1, last_bits}};
            if (instances > 1) {
                probes.push_back({instances - 1, 0, first_bits});
                probes.push_back({instances - 1, units - 1, last_bits});
            }

            for (AceMode mode : {AceMode::Standard, AceMode::Conservative}) {
                AceAnalyzer ace(cfg, mode);
                std::uint64_t expected = 0;
                for (const Probe& p : probes)
                    ace.onAlloc(spec.id, p.sm, p.unit, 1, 1);
                for (std::uint32_t k = 0; k < probes.size(); ++k)
                    ace.onWrite(spec.id, probes[k].sm, probes[k].unit, 2 + k);
                for (std::uint32_t k = 0; k < probes.size(); ++k)
                    ace.onRead(spec.id, probes[k].sm, probes[k].unit, 0,
                               10 + k);
                for (std::uint32_t k = 0; k < probes.size(); ++k)
                    ace.onRead(spec.id, probes[k].sm, probes[k].unit, 0,
                               20 + 3 * k);
                for (std::uint32_t k = 0; k < probes.size(); ++k) {
                    ace.onFree(spec.id, probes[k].sm, probes[k].unit, 1,
                               40 + 5 * k);
                    // Standard: write to last read; Conservative: write
                    // to free.
                    const std::uint64_t cycles =
                        mode == AceMode::Standard ? 18 + 2 * k : 38 + 4 * k;
                    expected += cycles * probes[k].bits;
                }
                ace.onKernelEnd(100);
                EXPECT_EQ(ace.aceUnitCycles(spec.id), expected)
                    << (mode == AceMode::Standard ? "standard" : "conservative");
            }

            // One unit past the last instance's end, and one instance
            // past the last, are out of range.
            AceAnalyzer ace(cfg, AceMode::Standard);
            EXPECT_THROW(ace.onRead(spec.id, instances - 1, units, 0, 1),
                         PanicError);
            EXPECT_THROW(ace.onWrite(spec.id, instances, 0, 1), PanicError);
            EXPECT_THROW(ace.onAlloc(spec.id, instances - 1, units - 1, 2, 1),
                         PanicError);
        }
    }
}

/** Full-simulation properties. */
TEST(AceAnalysis, AvfWithinBounds)
{
    const GpuConfig cfg = test::smallCudaConfig();
    for (auto name : {"vectoradd", "reduction", "histogram"}) {
        const auto wl = makeWorkload(name);
        const WorkloadInstance inst = wl->build(cfg.dialect, {});
        const AceResult r = runAceAnalysis(cfg, inst);
        for (const AceStructureResult& s : r.structures) {
            EXPECT_GE(s.avf(), 0.0) << name;
            EXPECT_LE(s.avf(), 1.0) << name;
        }
        // A word can only be ACE while allocated, so the structure AVF
        // cannot exceed its time-averaged occupancy (plus epsilon for
        // cycle-boundary accounting).
        EXPECT_LE(r.forStructure(kRf).avf(),
                  r.goldenStats.avgRegFileOccupancy + 0.02)
            << name;
        EXPECT_LE(r.forStructure(kLds).avf(),
                  r.goldenStats.avgSmemOccupancy + 0.02)
            << name;
    }
}

TEST(AceAnalysis, ConservativeDominatesStandard)
{
    const GpuConfig cfg = test::smallCudaConfig();
    for (auto name : {"vectoradd", "scan"}) {
        const auto wl = makeWorkload(name);
        const WorkloadInstance inst = wl->build(cfg.dialect, {});
        const AceResult std_mode =
            runAceAnalysis(cfg, inst, AceMode::Standard);
        const AceResult cons_mode =
            runAceAnalysis(cfg, inst, AceMode::Conservative);
        EXPECT_GE(cons_mode.forStructure(kRf).avf() + 1e-12,
                  std_mode.forStructure(kRf).avf())
            << name;
        EXPECT_GE(cons_mode.forStructure(kLds).avf() + 1e-12,
                  std_mode.forStructure(kLds).avf())
            << name;
    }
}

TEST(AceAnalysis, DeterministicAcrossRuns)
{
    const GpuConfig cfg = test::smallCudaConfig();
    const auto wl = makeWorkload("transpose");
    const WorkloadInstance inst = wl->build(cfg.dialect, {});
    const AceResult a = runAceAnalysis(cfg, inst);
    const AceResult b = runAceAnalysis(cfg, inst);
    ASSERT_EQ(a.structures.size(), b.structures.size());
    for (std::size_t i = 0; i < a.structures.size(); ++i)
        EXPECT_EQ(a.structures[i].aceUnitCycles, b.structures[i].aceUnitCycles);
}

TEST(AceAnalysis, NoSharedUseMeansZeroLdsAce)
{
    const GpuConfig cfg = test::smallCudaConfig();
    const auto wl = makeWorkload("kmeans"); // no local memory
    const WorkloadInstance inst = wl->build(cfg.dialect, {});
    const AceResult r = runAceAnalysis(cfg, inst);
    EXPECT_EQ(r.forStructure(kLds).aceUnitCycles, 0u);
    EXPECT_GT(r.forStructure(kRf).aceUnitCycles, 0u);
}

} // namespace
} // namespace gpr
