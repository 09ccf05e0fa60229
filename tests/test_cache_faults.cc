/**
 * @file
 * Cache-hierarchy fault targets: CacheModel semantics at unit scale
 * (tag / valid / data faults and their writeback consequences), the
 * misaligned-address trap the caches made necessary, registry coverage
 * across all four paper GPUs, and the legacy-vs-checkpoint differential
 * battery over l1d/l1i/l2 for every fault behavior.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "isa/builder.hh"
#include "reliability/campaign.hh"
#include "reliability/fault_injector.hh"
#include "sim/cache.hh"
#include "sim/structure_registry.hh"
#include "sim_test_util.hh"
#include "workloads/workloads.hh"

namespace gpr {
namespace {

constexpr auto kL1d = TargetStructure::L1DataCache;
constexpr auto kL1i = TargetStructure::L1InstructionCache;
constexpr auto kL2 = TargetStructure::L2Cache;

// A tiny 4-line x 4-word write-back cache (the L2 flavor) over a
// 64-word image.  lineBytes = 16, so addr A maps to line (A/16) % 4.
struct SmallCache
{
    MemoryImage img;
    Buffer buf;
    CacheModel l2{kL2, 0, 4, 4};

    SmallCache() { buf = img.allocBuffer(64); }
};

TEST(CacheModel, FaultFreeReadsAndWritesAreTransparent)
{
    SmallCache s;
    s.img.writeWord(0, 0x1234);
    const CacheModel::Access a = s.l2.read(0, nullptr, s.img, nullptr, 0);
    ASSERT_FALSE(a.trap.has_value());
    EXPECT_EQ(a.value, 0x1234u);

    ASSERT_FALSE(
        s.l2.write(4, 0xBEEF, nullptr, s.img, nullptr, 1).has_value());
    const CacheModel::Access b = s.l2.read(4, nullptr, s.img, nullptr, 2);
    EXPECT_EQ(b.value, 0xBEEFu);
    // Write-back: the store is cached, not yet in the image...
    EXPECT_EQ(s.img.readWord(4), 0u);
    // ...until the dirty line is flushed.
    ASSERT_FALSE(
        s.l2.flushDirty(nullptr, s.img, nullptr, 3).has_value());
    EXPECT_EQ(s.img.readWord(4), 0xBEEFu);
}

TEST(CacheModel, TagFaultMisalignedWritebackTraps)
{
    SmallCache s;
    ASSERT_FALSE(
        s.l2.write(0, 0xAA, nullptr, s.img, nullptr, 0).has_value());
    // Line 0's tag is 0; setting tag bit 0 makes the writeback address
    // 1 — detectably misaligned, the delayed DUE the old silent
    // align-down used to swallow.
    s.l2.flipBit(0);
    const auto trap = s.l2.flushDirty(nullptr, s.img, nullptr, 1);
    ASSERT_TRUE(trap.has_value());
    EXPECT_EQ(*trap, TrapKind::MisalignedAddress);
}

TEST(CacheModel, TagFaultOutOfBoundsWritebackTraps)
{
    SmallCache s;
    ASSERT_FALSE(
        s.l2.write(0, 0xAA, nullptr, s.img, nullptr, 0).has_value());
    // Tag bit 20: writeback address 1 MiB, far past the 256-byte image.
    s.l2.flipBit(20);
    const auto trap = s.l2.flushDirty(nullptr, s.img, nullptr, 1);
    ASSERT_TRUE(trap.has_value());
    EXPECT_EQ(*trap, TrapKind::GlobalOutOfBounds);
}

TEST(CacheModel, TagFaultWordAlignedInBoundsWritesSilentlyWrongAddress)
{
    SmallCache s;
    ASSERT_FALSE(
        s.l2.write(0, 0xAA, nullptr, s.img, nullptr, 0).has_value());
    // Tag bit 4 turns line base 0 into 16: word-aligned, in bounds —
    // undetectable, the line lands at the wrong address (stale SDC).
    s.l2.flipBit(4);
    ASSERT_FALSE(
        s.l2.flushDirty(nullptr, s.img, nullptr, 1).has_value());
    EXPECT_EQ(s.img.readWord(0), 0u) << "the store never reached word 0";
    EXPECT_EQ(s.img.readWord(16), 0xAAu);
}

TEST(CacheModel, TagFaultTurnsMissIntoStaleHit)
{
    SmallCache s;
    s.img.writeWord(0, 0x1111);
    s.img.writeWord(64, 0x2222);
    ASSERT_FALSE(
        s.l2.read(0, nullptr, s.img, nullptr, 0).trap.has_value());
    // Addr 64 also maps to line 0 (base 64).  Corrupting the cached tag
    // from 0 to 64 makes that access a *hit* on line 0's stale data.
    s.l2.flipBit(6);
    const CacheModel::Access a = s.l2.read(64, nullptr, s.img, nullptr, 1);
    ASSERT_FALSE(a.trap.has_value());
    EXPECT_EQ(a.value, 0x1111u) << "expected the stale cached word";
}

TEST(CacheModel, ValidBitFaultForcesMissAndRefetch)
{
    SmallCache s;
    s.img.writeWord(0, 0x1234);
    ASSERT_FALSE(
        s.l2.read(0, nullptr, s.img, nullptr, 0).trap.has_value());

    // Corrupt the cached copy (data bit 0 of line 0's word 0)...
    s.l2.flipBit(34);
    EXPECT_EQ(s.l2.read(0, nullptr, s.img, nullptr, 1).value, 0x1235u);

    // ...then knock the valid bit out: the next access misses and
    // refetches the uncorrupted word from memory — masked.
    s.l2.flipBit(32);
    EXPECT_EQ(s.l2.read(0, nullptr, s.img, nullptr, 2).value, 0x1234u);
}

TEST(CacheModel, ForceBitIsIdempotentAndFlipSelfInverts)
{
    SmallCache s;
    ASSERT_FALSE(
        s.l2.read(0, nullptr, s.img, nullptr, 0).trap.has_value());
    StateHash before;
    s.l2.hashInto(before);

    s.l2.forceBit(34, true);
    s.l2.forceBit(34, true); // persistent reassert: no further change
    StateHash forced;
    s.l2.hashInto(forced);
    EXPECT_NE(before.value(), forced.value());

    s.l2.flipBit(34);
    s.l2.forceBit(34, false); // already clear: idempotent
    StateHash back;
    s.l2.hashInto(back);
    EXPECT_EQ(before.value(), back.value());
}

TEST(CacheModel, InstructionFetchIsIdentityUntilFaulted)
{
    CacheModel l1i(kL1i, 0, 4, 4);
    for (std::uint32_t pc : {0u, 1u, 5u, 17u, 16u, 5u})
        EXPECT_EQ(l1i.fetchInst(pc, nullptr, 0), pc);

    // pc 5 lives in line 1 slot 1; its data bits start at
    // 1*cacheLineBits + 34 + 1*32.  Flipping bit 0 there makes the
    // fetch return instruction index 4 instead of 5.
    const std::uint64_t bit = cacheLineBits(4) + 34 + 32;
    l1i.flipBit(bit);
    EXPECT_EQ(l1i.fetchInst(5, nullptr, 1), 4u);
    // Other slots of the line are untouched.
    EXPECT_EQ(l1i.fetchInst(6, nullptr, 2), 6u);
}

TEST(CacheRegistry, CacheRowsApplyOnAllFourPaperGpus)
{
    for (GpuModel m : {GpuModel::HdRadeon7970, GpuModel::QuadroFx5600,
                       GpuModel::QuadroFx5800, GpuModel::GeforceGtx480}) {
        const GpuConfig& cfg = gpuConfig(m);
        for (TargetStructure s : {kL1d, kL1i, kL2}) {
            EXPECT_GT(structureBitsTotal(cfg, s), 0u) << cfg.name;
            EXPECT_GT(structureAceUnitsTotal(cfg, s), 0u) << cfg.name;
            EXPECT_TRUE(structureApplies(cfg, s, false)) << cfg.name;
        }
        // The shared L2 is chip-scoped: totals must not scale with SMs.
        GpuConfig one_sm = cfg;
        one_sm.numSms = 1;
        EXPECT_EQ(structureBitsTotal(cfg, kL2),
                  structureBitsTotal(one_sm, kL2));
        EXPECT_EQ(structureBitsTotal(cfg, kL1d),
                  structureBitsTotal(one_sm, kL1d) * cfg.numSms);
    }

    // Geometry identity: bits = lines x (34 + 32*lineWords).
    const GpuConfig& gtx = gpuConfig(GpuModel::GeforceGtx480);
    EXPECT_EQ(structureBitsTotal(gtx, kL2),
              gtx.l2Lines() * cacheLineBits(gtx.cacheLineWords()));
}

TEST(CacheFaults, MisalignedLoadTrapsInsteadOfAligningDown)
{
    // Regression for the silent align-down: a load from a misaligned
    // global address must classify as a DUE (MisalignedAddress), not
    // quietly read the enclosing word.
    KernelBuilder kb("misaligned", IsaDialect::Cuda);
    const Operand addr = kb.uniformReg();
    const Operand v = kb.vreg();
    kb.ldparam(addr, 0);
    kb.ldg(v, addr, 0);
    kb.stg(addr, v, 4);
    kb.exit();
    const Program prog = kb.finish();

    MemoryImage img;
    const Buffer buf = img.allocBuffer(4);
    LaunchConfig launch;
    launch.blockX = 1;
    launch.gridX = 1;
    launch.addParamAddr(buf.byteAddr + 1); // misaligned by one byte

    const RunResult r =
        test::runProgram(test::smallCudaConfig(), prog, launch, img);
    EXPECT_EQ(r.trap, TrapKind::MisalignedAddress);
}

TEST(CacheFaults, DifferentialAcrossEnginesAllBehaviors)
{
    // For every fault behavior, an injection into l1d/l1i/l2 through
    // the checkpoint-restore engine must classify exactly like the
    // from-scratch engine.  Caches publish no exact dead windows, so
    // the persistent fast path must never shortcut them; transient
    // runs may still converge onto the golden trajectory hash.
    constexpr std::size_t kInjections = 10;
    constexpr FaultBehavior kBehaviors[] = {
        FaultBehavior::Transient, FaultBehavior::StuckAt0,
        FaultBehavior::StuckAt1, FaultBehavior::Intermittent};
    const GpuConfig configs[] = {test::smallCudaConfig(),
                                 test::smallSiConfig()};

    std::size_t unmasked_total = 0;
    for (const GpuConfig& cfg : configs) {
        const WorkloadInstance inst =
            makeWorkload("reduction")->build(cfg.dialect, {});
        FaultInjector legacy(cfg, inst);
        FaultInjector ckpt(cfg, inst);
        ckpt.adoptGoldenCycles(legacy.goldenCycles());
        ckpt.buildCheckpointPack(4);

        for (TargetStructure s : {kL1d, kL1i, kL2}) {
            for (FaultBehavior behavior : kBehaviors) {
                const FaultShape shape{behavior, FaultPattern::SingleBit};
                for (std::size_t i = 0; i < kInjections; ++i) {
                    const std::uint64_t seed = deriveSeed(
                        0xCACE, static_cast<std::uint64_t>(s) * 100 + i);
                    const InjectionResult a =
                        runIndexedInjection(legacy, s, seed, i, shape);
                    const InjectionResult b =
                        runIndexedInjection(ckpt, s, seed, i, shape);
                    EXPECT_EQ(a.fault.bitIndex, b.fault.bitIndex);
                    EXPECT_EQ(a.fault.cycle, b.fault.cycle);
                    EXPECT_EQ(a.outcome, b.outcome)
                        << cfg.name << " " << targetStructureName(s)
                        << " " << faultBehaviorName(behavior) << " bit "
                        << a.fault.bitIndex << " cycle " << a.fault.cycle;
                    EXPECT_EQ(a.trap, b.trap);
                    EXPECT_EQ(a.shortcut, InjectionShortcut::None);
                    if (behavior == FaultBehavior::Transient) {
                        EXPECT_NE(b.shortcut,
                                  InjectionShortcut::DeadWindow);
                        EXPECT_NE(b.shortcut,
                                  InjectionShortcut::ValueResidency);
                        if (b.shortcut != InjectionShortcut::None) {
                            EXPECT_EQ(b.outcome, FaultOutcome::Masked);
                        }
                    } else {
                        EXPECT_EQ(b.shortcut, InjectionShortcut::None);
                    }
                    if (a.outcome != FaultOutcome::Masked)
                        ++unmasked_total;
                }
            }
        }

        // Targeted phase: random bits rarely land in resident lines of
        // a multi-kilobyte cache, but line 0 of the L1i holds the hot
        // low instruction slots of every kernel, so corrupting them
        // manifests.  Both engines must agree here too.
        for (FaultBehavior behavior : kBehaviors) {
            for (std::uint32_t slot : {1u, 2u, 3u, 5u}) {
                FaultSpec f;
                f.structure = kL1i;
                f.bitIndex = 34 + slot * 32 + 1; // SM 0, line 0, bit 1
                f.cycle = legacy.goldenCycles() / 4;
                f.behavior = behavior;
                if (behavior == FaultBehavior::Intermittent) {
                    f.intermittentPeriod = 16;
                    f.intermittentActive = 8;
                    f.intermittentValue = true;
                }
                const InjectionResult a = legacy.inject(f);
                const InjectionResult b = ckpt.inject(f);
                EXPECT_EQ(a.outcome, b.outcome)
                    << cfg.name << " targeted slot " << slot << " "
                    << faultBehaviorName(behavior);
                EXPECT_EQ(a.trap, b.trap);
                if (a.outcome != FaultOutcome::Masked)
                    ++unmasked_total;
            }
        }
    }
    // The sweep must hit real failures, or it proves nothing.
    EXPECT_GT(unmasked_total, 0u);
}

TEST(CacheFaults, CampaignsRunOnCacheStructures)
{
    // End-to-end smoke: a small campaign per cache structure completes
    // and its counts partition the injections.
    const GpuConfig cfg = test::smallCudaConfig();
    const WorkloadInstance inst =
        makeWorkload("vectoradd")->build(cfg.dialect, {});
    for (TargetStructure s : {kL1d, kL1i, kL2}) {
        CampaignConfig cc;
        cc.plan.injections = 16;
        cc.numThreads = 2;
        const CampaignResult r = runCampaign(cfg, inst, s, cc);
        EXPECT_EQ(r.injections, 16u) << targetStructureName(s);
        EXPECT_EQ(r.masked + r.sdc + r.due, r.injections)
            << targetStructureName(s);
    }
}

} // namespace
} // namespace gpr
