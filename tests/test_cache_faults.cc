/**
 * @file
 * Cache-hierarchy fault targets: CacheModel semantics at unit scale
 * (tag / valid / data faults and their writeback consequences), the
 * misaligned-address trap the caches made necessary, registry coverage
 * across all four paper GPUs, the legacy-vs-checkpoint differential
 * battery over l1d/l1i/l2 for every fault behavior, and the soundness
 * of the data-word dead windows: one targeted flip per consumer path of
 * a cached word, metadata bits that must never be prefiltered, and a
 * transient battery over the lines workloads touch.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "common/random.hh"
#include "core/orchestrator.hh"
#include "isa/builder.hh"
#include "reliability/campaign.hh"
#include "reliability/fault_injector.hh"
#include "reliability/fault_windows.hh"
#include "sim/cache.hh"
#include "sim/structure_registry.hh"
#include "sim_test_util.hh"
#include "workloads/workloads.hh"

namespace gpr {
namespace {

constexpr auto kL1d = TargetStructure::L1DataCache;
constexpr auto kL1i = TargetStructure::L1InstructionCache;
constexpr auto kL2 = TargetStructure::L2Cache;

/**
 * The checks every transient cache verdict of the checkpoint engine
 * (@p ckpt) must pass against the from-scratch engine (@p legacy): equal
 * outcome and trap, and a shortcut only ever for a Masked outcome.  A
 * DeadWindow verdict must name an aligned group inside one data word
 * (computed here from the line layout, not by the injector's helper).
 * Returns whether @p ckpt was a DeadWindow verdict.
 */
bool
expectSoundTransient(const GpuConfig& cfg, const InjectionResult& legacy,
                     const InjectionResult& ckpt)
{
    const FaultSpec& f = ckpt.fault;
    EXPECT_EQ(legacy.outcome, ckpt.outcome)
        << cfg.name << " " << targetStructureName(f.structure) << " bit "
        << f.bitIndex << " cycle " << f.cycle;
    EXPECT_EQ(legacy.trap, ckpt.trap);
    EXPECT_EQ(legacy.shortcut, InjectionShortcut::None);
    EXPECT_NE(ckpt.shortcut, InjectionShortcut::ValueResidency);
    if (ckpt.shortcut != InjectionShortcut::None) {
        EXPECT_EQ(ckpt.outcome, FaultOutcome::Masked);
    }
    if (ckpt.shortcut != InjectionShortcut::DeadWindow)
        return false;
    const unsigned width = faultPatternWidth(f.pattern);
    const std::uint64_t lb = cacheLineBits(cfg.cacheLineWords());
    const std::uint64_t first = (f.bitIndex - f.bitIndex % width) % lb;
    EXPECT_GE(first, 34u) << "DeadWindow on a metadata bit " << f.bitIndex;
    EXPECT_EQ((first - 34) / 32, (first + width - 1 - 34) / 32)
        << "DeadWindow on a group spanning two data words " << f.bitIndex;
    return true;
}

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
    // from-scratch engine.  Transient flips in a cache data word may be
    // classified by its dead windows; persistent cache faults get no
    // residency prefilter (their forcing mutates the raw line), so they
    // never shortcut.
    constexpr std::size_t kInjections = 10;
    constexpr FaultBehavior kBehaviors[] = {
        FaultBehavior::Transient, FaultBehavior::StuckAt0,
        FaultBehavior::StuckAt1, FaultBehavior::Intermittent};
    const GpuConfig configs[] = {test::smallCudaConfig(),
                                 test::smallSiConfig()};

    std::size_t unmasked_total = 0;
    std::size_t dead_windows = 0;
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
                        if (expectSoundTransient(cfg, a, b))
                            ++dead_windows;
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
    // The sweep must hit real failures, or it proves nothing, and the
    // data-word prefilter must have fired.
    EXPECT_GT(unmasked_total, 0u);
    EXPECT_GT(dead_windows, 0u);
}

// --- Data-word dead windows: one targeted flip per consumer path ----

/** A device whose caches all have the SmallCache geometry (4 lines x 4
 *  words), so a FaultWindowRecorder sized from it tracks those caches. */
GpuConfig
smallLineConfig()
{
    GpuConfig cfg = test::smallCudaConfig();
    cfg.cacheLineBytes = 16;
    cfg.l1dBytesPerSm = 64;
    cfg.l1iBytesPerSm = 64;
    cfg.l2Bytes = 64;
    return cfg;
}

/** Fault bit of bit 0 of data word @p j of @p line (4-word lines). */
constexpr std::uint64_t
dataBit(std::uint32_t line, std::uint32_t j)
{
    return line * cacheLineBits(4) + 34 + 32 * j;
}

/** The three caches of smallLineConfig() over a 64-word image, with a
 *  window recorder to pass as their observer. */
struct RecordedCaches
{
    GpuConfig cfg = smallLineConfig();
    FaultWindowRecorder recorder{cfg, registeredStructures()};
    MemoryImage img;
    CacheModel l1d{kL1d, 0, 4, 4};
    CacheModel l1i{kL1i, 0, 4, 4};
    CacheModel l2{kL2, 0, 4, 4};

    RecordedCaches() { img.allocBuffer(64); }

    /** Would a flip of word @p j of @p line in @p s at the start of
     *  @p cycle be read before being overwritten? */
    bool
    live(TargetStructure s, std::uint32_t line, std::uint32_t j,
         Cycle cycle)
    {
        if (!windows.enabled())
            recorder.finalize(windows);
        const std::optional<std::uint64_t> unit =
            cacheDataUnit(4, dataBit(line, j), 1);
        EXPECT_TRUE(unit.has_value());
        return windows.observed(s, unit.value_or(0), cycle);
    }

    FaultWindows windows;
};

TEST(CacheWindows, L2DirtyVictimIsLiveUntilItsEvictionWriteback)
{
    // Store to line 0 word 0 at cycle 1, last read at 2; at cycle 6 an
    // access to address 64 (also line 0) evicts the dirty victim, whose
    // writeback reads every data word before the refill.
    RecordedCaches c;
    ASSERT_FALSE(c.l2.write(0, 0xAA, nullptr, c.img, &c.recorder, 1)
                     .has_value());
    ASSERT_FALSE(c.l2.read(0, nullptr, c.img, &c.recorder, 2)
                     .trap.has_value());
    ASSERT_FALSE(c.l2.read(64, nullptr, c.img, &c.recorder, 6)
                     .trap.has_value());
    EXPECT_TRUE(c.live(kL2, 0, 0, 4)) << "after the last read";
    EXPECT_TRUE(c.live(kL2, 0, 0, 6)) << "in the writeback's cycle";
    EXPECT_FALSE(c.live(kL2, 0, 0, 7)) << "after the refill";

    // The flip at cycle 4 does reach memory.
    SmallCache s;
    ASSERT_FALSE(
        s.l2.write(0, 0xAA, nullptr, s.img, nullptr, 1).has_value());
    ASSERT_FALSE(s.l2.read(0, nullptr, s.img, nullptr, 2).trap.has_value());
    s.l2.flipBit(dataBit(0, 0));
    ASSERT_FALSE(
        s.l2.read(64, nullptr, s.img, nullptr, 6).trap.has_value());
    EXPECT_EQ(s.img.readWord(0), 0xABu);
}

TEST(CacheWindows, L2DirtyWordIsLiveUntilTheKernelEndFlush)
{
    // Line 0 word 1 is stored at 1 and last read at 2; flushDirty() at
    // the end of the kernel (cycle 8) writes it back.  Line 2 is filled
    // at 3 and hit at 4, but clean, so it is never written back.
    RecordedCaches c;
    ASSERT_FALSE(c.l2.write(4, 0xBEEF, nullptr, c.img, &c.recorder, 1)
                     .has_value());
    ASSERT_FALSE(c.l2.read(4, nullptr, c.img, &c.recorder, 2)
                     .trap.has_value());
    for (Cycle cycle : {Cycle{3}, Cycle{4}}) {
        ASSERT_FALSE(c.l2.read(32, nullptr, c.img, &c.recorder, cycle)
                         .trap.has_value());
    }
    ASSERT_FALSE(
        c.l2.flushDirty(nullptr, c.img, &c.recorder, 8).has_value());
    EXPECT_TRUE(c.live(kL2, 0, 1, 5));
    EXPECT_TRUE(c.live(kL2, 0, 1, 8));
    EXPECT_FALSE(c.live(kL2, 0, 1, 9));
    EXPECT_FALSE(c.live(kL2, 2, 0, 3)) << "the fill overwrites it";
    EXPECT_TRUE(c.live(kL2, 2, 0, 4));
    EXPECT_FALSE(c.live(kL2, 2, 0, 5)) << "a clean line is not flushed";

    SmallCache s;
    ASSERT_FALSE(
        s.l2.write(4, 0xBEEF, nullptr, s.img, nullptr, 1).has_value());
    s.l2.flipBit(dataBit(0, 1));
    ASSERT_FALSE(s.l2.flushDirty(nullptr, s.img, nullptr, 8).has_value());
    EXPECT_EQ(s.img.readWord(4), 0xBEEEu);
}

TEST(CacheWindows, L1dLineRefilledBeforeItsNextReadIsDead)
{
    // Line 0 holds address 0 from cycle 1 (hit at 2), address 64 from
    // cycle 4 and address 0 again from cycle 6: each refill overwrites
    // the line before the next read of its words.
    RecordedCaches c;
    c.img.writeWord(0, 0x11);
    c.img.writeWord(64, 0x22);
    for (const auto& [addr, cycle] :
         {std::pair<Addr, Cycle>{0, 1}, {0, 2}, {64, 4}, {0, 6}}) {
        ASSERT_FALSE(c.l1d.read(addr, nullptr, c.img, &c.recorder, cycle)
                         .trap.has_value());
    }
    EXPECT_TRUE(c.live(kL1d, 0, 0, 2));
    EXPECT_FALSE(c.live(kL1d, 0, 0, 3));
    EXPECT_FALSE(c.live(kL1d, 0, 0, 5));
    EXPECT_FALSE(c.live(kL1d, 0, 1, 2)) << "word 1 is never read";

    // The flip at cycle 3 never surfaces.
    CacheModel l1d(kL1d, 0, 4, 4);
    EXPECT_EQ(l1d.read(0, nullptr, c.img, nullptr, 1).value, 0x11u);
    l1d.flipBit(dataBit(0, 0));
    EXPECT_EQ(l1d.read(64, nullptr, c.img, nullptr, 4).value, 0x22u);
    EXPECT_EQ(l1d.read(0, nullptr, c.img, nullptr, 6).value, 0x11u);
}

TEST(CacheWindows, L1iFetchReadsTheFetchedSlot)
{
    RecordedCaches c;
    EXPECT_EQ(c.l1i.fetchInst(5, &c.recorder, 1), 5u);
    EXPECT_EQ(c.l1i.fetchInst(5, &c.recorder, 4), 5u);
    EXPECT_TRUE(c.live(kL1i, 1, 1, 3));
    EXPECT_FALSE(c.live(kL1i, 1, 2, 3)) << "slot 2 is never fetched";
    EXPECT_FALSE(c.live(kL1i, 1, 1, 5)) << "after the last fetch";

    CacheModel l1i(kL1i, 0, 4, 4);
    EXPECT_EQ(l1i.fetchInst(5, nullptr, 1), 5u);
    l1i.flipBit(dataBit(1, 1));
    EXPECT_EQ(l1i.fetchInst(5, nullptr, 4), 4u);
}

TEST(CacheWindows, AtomicUpdateIfPresentKeepsTheWindowOpen)
{
    // An atomic performed at the L2 patches the resident L1d copy with
    // updateIfPresent(), which reports no event.  The window therefore
    // stays open across it: wider than the flip's real life (a flip at
    // cycle 2 is overwritten at 3), never narrower.
    RecordedCaches c;
    ASSERT_FALSE(c.l1d.read(0, nullptr, c.img, &c.recorder, 1)
                     .trap.has_value());
    c.l1d.updateIfPresent(0, 0x77);
    EXPECT_EQ(c.l1d.read(0, nullptr, c.img, &c.recorder, 5).value, 0x77u);
    EXPECT_TRUE(c.live(kL1d, 0, 0, 2));
    EXPECT_TRUE(c.live(kL1d, 0, 0, 4));

    CacheModel l1d(kL1d, 0, 4, 4);
    ASSERT_FALSE(l1d.read(0, nullptr, c.img, nullptr, 1).trap.has_value());
    l1d.flipBit(dataBit(0, 0));
    l1d.updateIfPresent(0, 0x77);
    EXPECT_EQ(l1d.read(0, nullptr, c.img, nullptr, 5).value, 0x77u);
}

TEST(CacheFaults, MetadataBitsAreNeverPrefiltered)
{
    // At cycle 0 every line is invalid, so a data-word flip is dead
    // (the refill overwrites it before any read) and classified
    // DeadWindow.  Tag, valid and dirty bits act through address
    // comparison, not reads: neither they nor a quad group reaching
    // into them, nor one spanning two data words, may be prefiltered,
    // at cycle 0 or mid-run.  The flips land in line 2 of instance 0:
    // an even line, so a quad group can start at the valid bit (a line
    // is 2 mod 4 bits long).
    struct Case
    {
        std::uint64_t bit; ///< within the line
        FaultPattern pattern;
        const char* what;
        bool data; ///< inside one data word
    };
    const Case cases[] = {
        {34 + 3 * 32 + 7, FaultPattern::SingleBit, "data", true},
        {5, FaultPattern::SingleBit, "tag", false},
        {32, FaultPattern::SingleBit, "valid", false},
        {33, FaultPattern::SingleBit, "dirty", false},
        {33, FaultPattern::AdjacentQuad, "quad over valid, dirty and data",
         false},
        {34 + 30, FaultPattern::AdjacentQuad, "quad over two data words",
         false},
    };
    const GpuConfig configs[] = {test::smallCudaConfig(),
                                 test::smallSiConfig()};
    for (const GpuConfig& cfg : configs) {
        const WorkloadInstance inst =
            makeWorkload("reduction")->build(cfg.dialect, {});
        FaultInjector legacy(cfg, inst);
        FaultInjector ckpt(cfg, inst);
        ckpt.adoptGoldenCycles(legacy.goldenCycles());
        ckpt.buildCheckpointPack(4);
        const std::uint64_t line_base = 2 * cacheLineBits(cfg.cacheLineWords());
        for (TargetStructure s : {kL1d, kL1i, kL2}) {
            for (const Case& k : cases) {
                for (Cycle cycle : {Cycle{0}, legacy.goldenCycles() / 2}) {
                    SCOPED_TRACE(testing::Message()
                                 << cfg.name << " " << targetStructureName(s)
                                 << " " << k.what << " cycle " << cycle);
                    FaultSpec f;
                    f.structure = s;
                    f.bitIndex = line_base + k.bit;
                    f.cycle = cycle;
                    f.pattern = k.pattern;
                    const InjectionResult b = ckpt.inject(f);
                    expectSoundTransient(cfg, legacy.inject(f), b);
                    if (!k.data) {
                        EXPECT_NE(b.shortcut, InjectionShortcut::DeadWindow);
                    } else if (cycle == 0) {
                        EXPECT_EQ(b.shortcut, InjectionShortcut::DeadWindow);
                    }
                }
            }
        }
    }
}

TEST(CacheFaults, FlipInDirtyL2OutputLineIsLiveUntilTheFlush)
{
    // vectoradd's first output word sits in a dirty L2 line from its
    // store until the end-of-kernel flush.  A flip there in the last
    // cycle reaches memory: SDC on both engines, never DeadWindow.
    for (const GpuConfig& cfg :
         {test::smallCudaConfig(), test::smallSiConfig()}) {
        const WorkloadInstance inst =
            makeWorkload("vectoradd")->build(cfg.dialect, {});
        FaultInjector legacy(cfg, inst);
        FaultInjector ckpt(cfg, inst);
        ckpt.adoptGoldenCycles(legacy.goldenCycles());
        ckpt.buildCheckpointPack(4);

        const Addr addr = inst.outputs.at(0).buffer.byteAddr;
        const std::uint32_t lw = cfg.cacheLineWords();
        const std::uint64_t line = addr / (Addr{lw} * 4) % cfg.l2Lines();
        FaultSpec f;
        f.structure = kL2;
        f.bitIndex = line * cacheLineBits(lw) + 34 +
                     32 * (addr / 4 % lw) + 30;
        f.cycle = legacy.goldenCycles() - 1;
        const InjectionResult a = legacy.inject(f);
        const InjectionResult b = ckpt.inject(f);
        EXPECT_EQ(a.outcome, FaultOutcome::Sdc) << cfg.name;
        expectSoundTransient(cfg, a, b);
        EXPECT_EQ(b.shortcut, InjectionShortcut::None) << cfg.name;
    }
}

/**
 * A transient fault with @p pattern at a uniform bit of a line that
 * @p inst touches in cache @p s (its image for the data caches, its
 * program for the L1i), in a uniform instance, at a uniform cycle below
 * @p golden.
 */
FaultSpec
touchedLineFault(const GpuConfig& cfg, const WorkloadInstance& inst,
                 TargetStructure s, Cycle golden, FaultPattern pattern,
                 Rng& rng)
{
    const StructureSpec& spec = structureSpec(s);
    const std::uint32_t lw = cfg.cacheLineWords();
    const std::uint64_t lb = cacheLineBits(lw);
    const std::uint64_t lines = spec.bitsPerSm(cfg) / lb;
    const std::uint64_t words =
        s == kL1i ? inst.program.size() : inst.image.sizeWords();
    const std::uint64_t touched = std::min(lines, (words + lw - 1) / lw);
    const std::uint64_t instance =
        spec.scope == StructureScope::PerSm ? rng.below(cfg.numSms) : 0;
    FaultSpec f;
    f.structure = s;
    f.pattern = pattern;
    f.bitIndex = (instance * lines + rng.below(touched)) * lb + rng.below(lb);
    f.cycle = rng.below(golden);
    return f;
}

TEST(CacheFaults, TransientVerdictsOnTouchedLinesMatchLegacyEngine)
{
    // Uniform campaign samples mostly land in lines no access reaches;
    // these land where windows open and close.  200 transient flips per
    // cache row and config, alternately single bits and adjacent quads,
    // each re-run on the from-scratch engine.
    constexpr std::size_t kInjections = 200;
    std::size_t dead_windows = 0;
    std::size_t simulated = 0;
    std::size_t unmasked = 0;
    for (const GpuConfig& cfg :
         {test::smallCudaConfig(), test::smallSiConfig()}) {
        const WorkloadInstance inst =
            makeWorkload("gaussian")->build(cfg.dialect, {});
        FaultInjector legacy(cfg, inst);
        FaultInjector ckpt(cfg, inst);
        const Cycle golden = legacy.goldenCycles();
        ckpt.adoptGoldenCycles(golden);
        ckpt.buildCheckpointPack(4);
        Rng rng(deriveSeed(0xDEAD, cfg.numSms + cfg.cacheLineWords()));
        for (TargetStructure s : {kL1d, kL1i, kL2}) {
            for (std::size_t i = 0; i < kInjections; ++i) {
                const FaultSpec f = touchedLineFault(
                    cfg, inst, s, golden,
                    i % 2 ? FaultPattern::AdjacentQuad
                          : FaultPattern::SingleBit,
                    rng);
                const InjectionResult a = legacy.inject(f);
                const InjectionResult b = ckpt.inject(f);
                if (expectSoundTransient(cfg, a, b))
                    ++dead_windows;
                else
                    ++simulated;
                if (a.outcome != FaultOutcome::Masked)
                    ++unmasked;
            }
        }
    }
    // Both verdicts must occur, and some flips must manifest.
    EXPECT_GT(dead_windows, 0u);
    EXPECT_GT(simulated, 0u);
    EXPECT_GT(unmasked, 0u);
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
