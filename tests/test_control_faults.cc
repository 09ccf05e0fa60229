/**
 * @file
 * Tests for the control-state fault targets (predicate file, SIMT
 * reconvergence stack + PC) introduced on top of the structure
 * registry: bit-mapping sanity, trap behaviour of corrupted PCs, ACE
 * coverage, the soundness of their dead windows (one targeted flip per
 * consumer path, inside its window and after it, and SIMT bit groups
 * that straddle two units), the differential guarantee that the legacy
 * and checkpoint-restore engines classify identical control-fault lists
 * identically (dead-window prefilter and checkpoint restore alike), and
 * that a PC fault wakes an SM sleeping on a load.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/hash.hh"
#include "common/string_utils.hh"
#include "core/orchestrator.hh"
#include "isa/builder.hh"
#include "reliability/ace.hh"
#include "reliability/campaign.hh"
#include "reliability/fault_injector.hh"
#include "sim/structure_registry.hh"
#include "sim_test_util.hh"
#include "workloads/workloads.hh"

namespace gpr {
namespace {

constexpr auto kPred = TargetStructure::PredicateFile;
constexpr auto kSimt = TargetStructure::SimtStack;

WorkloadInstance
buildFor(const GpuConfig& cfg, const char* workload)
{
    return makeWorkload(workload)->build(cfg.dialect, {});
}

/**
 * The unit of the SIMT target holding fault-space bit @p bit, from the
 * per-warp layout: 0 for the PC and the active/exited masks, 1 + e for
 * stack entry e, numbered across warp slots.
 */
std::uint64_t
simtUnitOfBit(const GpuConfig& cfg, std::uint64_t bit)
{
    const std::uint64_t per_warp =
        32 + 2 * std::uint64_t{cfg.warpWidth} +
        kSimtStackDepth * (1 + 32 + std::uint64_t{cfg.warpWidth});
    const std::uint64_t r = bit % per_warp;
    const std::uint64_t head = 32 + 2 * std::uint64_t{cfg.warpWidth};
    return bit / per_warp * kSimtUnitsPerWarp +
           (r < head ? 0 : 1 + (r - head) / (1 + 32 + cfg.warpWidth));
}

/**
 * The checks every transient control verdict of the checkpoint engine
 * (@p ckpt) must pass against the from-scratch engine (@p legacy): equal
 * outcome and trap, and a shortcut only ever for a Masked outcome.  A
 * DeadWindow verdict must name an aligned group inside one predicate
 * register or one SIMT unit (computed here from the layout, not by the
 * injector's helper).  Returns whether @p ckpt was a DeadWindow verdict.
 */
bool
expectSoundControlVerdict(const GpuConfig& cfg,
                          const InjectionResult& legacy,
                          const InjectionResult& ckpt)
{
    const FaultSpec& f = ckpt.fault;
    EXPECT_EQ(legacy.outcome, ckpt.outcome)
        << cfg.name << " " << targetStructureName(f.structure) << " bit "
        << f.bitIndex << " cycle " << f.cycle << " pattern "
        << faultPatternWidth(f.pattern);
    EXPECT_EQ(legacy.trap, ckpt.trap);
    EXPECT_EQ(legacy.shortcut, InjectionShortcut::None);
    EXPECT_NE(ckpt.shortcut, InjectionShortcut::ValueResidency);
    if (ckpt.shortcut != InjectionShortcut::None) {
        EXPECT_EQ(ckpt.outcome, FaultOutcome::Masked);
    }
    if (ckpt.shortcut != InjectionShortcut::DeadWindow)
        return false;
    const unsigned width = faultPatternWidth(f.pattern);
    const std::uint64_t first = f.bitIndex - f.bitIndex % width;
    const std::uint64_t last = first + width - 1;
    if (f.structure == kPred) {
        EXPECT_EQ(first / cfg.warpWidth, last / cfg.warpWidth)
            << "DeadWindow on a group spanning two predicate registers "
            << f.bitIndex;
    } else {
        EXPECT_EQ(simtUnitOfBit(cfg, first), simtUnitOfBit(cfg, last))
            << "DeadWindow on a group spanning two SIMT units "
            << f.bitIndex;
    }
    return true;
}

TEST(ControlFaults, FaultSpaceCoversEveryResidentWarpSlot)
{
    const GpuConfig cfg = test::smallCudaConfig();
    const Gpu gpu(cfg);
    EXPECT_EQ(gpu.structureBits(kPred),
              std::uint64_t{cfg.numSms} * cfg.maxWarpsPerSm *
                  kNumPredRegs * cfg.warpWidth);
    EXPECT_EQ(gpu.structureBits(kSimt),
              std::uint64_t{cfg.numSms} * cfg.maxWarpsPerSm *
                  simtBitsPerWarp(cfg));
}

TEST(ControlFaults, CorruptedPcTrapsAsDue)
{
    // Flipping bit 31 of warp slot 0's PC early in the run sends the
    // fetch far outside the program: InvalidControlFlow, classified DUE
    // — by both engines.
    const GpuConfig cfg = test::smallCudaConfig();
    const WorkloadInstance inst = buildFor(cfg, "reduction");

    FaultSpec fault;
    fault.structure = kSimt;
    fault.bitIndex = 31; // SM 0, warp slot 0, PC bit 31
    fault.cycle = 5;

    FaultInjector legacy(cfg, inst);
    const InjectionResult a = legacy.inject(fault);
    EXPECT_EQ(a.outcome, FaultOutcome::Due);
    EXPECT_EQ(a.trap, TrapKind::InvalidControlFlow);

    FaultInjector ckpt(cfg, inst);
    ckpt.adoptGoldenCycles(legacy.goldenCycles());
    ckpt.buildCheckpointPack(4);
    const InjectionResult b = ckpt.inject(fault);
    EXPECT_EQ(b.outcome, a.outcome);
    EXPECT_EQ(b.trap, a.trap);
}

TEST(ControlFaults, FlipInUnusedWarpSlotIsMasked)
{
    // The last warp slot of the last SM is never claimed by these tiny
    // grids: its control state is dead, so the flip must be Masked —
    // with zero observable difference between engines — and no golden
    // read ever opens a window there.
    const GpuConfig cfg = test::smallCudaConfig();
    const WorkloadInstance inst = buildFor(cfg, "vectoradd");

    FaultInjector legacy(cfg, inst);
    FaultInjector ckpt(cfg, inst);
    ckpt.adoptGoldenCycles(legacy.goldenCycles());
    ckpt.buildCheckpointPack(2);

    for (TargetStructure s : {kPred, kSimt}) {
        FaultSpec fault;
        fault.structure = s;
        fault.bitIndex = legacy.gpu().structureBits(s) - 1;
        fault.cycle = legacy.goldenCycles() / 2;

        const InjectionResult a = legacy.inject(fault);
        const InjectionResult b = ckpt.inject(fault);
        EXPECT_EQ(a.outcome, FaultOutcome::Masked)
            << targetStructureName(s);
        EXPECT_EQ(b.outcome, FaultOutcome::Masked)
            << targetStructureName(s);
        EXPECT_EQ(b.shortcut, InjectionShortcut::DeadWindow)
            << targetStructureName(s);
    }
}

TEST(ControlFaults, AceCoversControlState)
{
    for (const GpuConfig& cfg :
         {test::smallCudaConfig(), test::smallSiConfig()}) {
        const WorkloadInstance inst = buildFor(cfg, "reduction");
        const AceResult ace = runAceAnalysis(cfg, inst);

        // The PC/mask unit is read+written every issue: the SIMT target
        // accumulates ACE time on any kernel.
        const AceStructureResult& simt = ace.forStructure(kSimt);
        EXPECT_GT(simt.aceUnitCycles, 0u) << cfg.name;
        EXPECT_GT(simt.avf(), 0.0) << cfg.name;
        EXPECT_LE(simt.avf(), 1.0) << cfg.name;

        // reduction's guarded bounds/tree branches exercise predicates.
        const AceStructureResult& pred = ace.forStructure(kPred);
        EXPECT_GT(pred.aceUnitCycles, 0u) << cfg.name;
        EXPECT_LE(pred.avf(), 1.0) << cfg.name;
    }
}

/**
 * The differential guarantee extended to the control-state targets:
 * for every injection the checkpointed engine (dead-window prefilter,
 * then restore and replay) classifies exactly like the from-scratch
 * engine, across both dialects, divergence/barrier-heavy kernels and
 * single, adjacent-double and adjacent-quad flips.  The pack records
 * windows for the two control structures only.
 */
TEST(ControlFaults, DifferentialOutcomeEquality)
{
    struct Plan
    {
        FaultPattern pattern;
        std::size_t injections;
    };
    constexpr Plan kPlans[] = {{FaultPattern::SingleBit, 30},
                               {FaultPattern::AdjacentDouble, 10},
                               {FaultPattern::AdjacentQuad, 10}};
    const GpuConfig configs[] = {test::smallCudaConfig(),
                                 test::smallSiConfig()};
    const char* workloads[] = {"vectoradd", "reduction", "histogram"};

    std::size_t dead_windows = 0;
    std::size_t unmasked_total = 0;
    for (const GpuConfig& cfg : configs) {
        for (const char* wname : workloads) {
            const WorkloadInstance inst = buildFor(cfg, wname);

            FaultInjector legacy(cfg, inst);
            FaultInjector ckpt(cfg, inst);
            ckpt.adoptGoldenCycles(legacy.goldenCycles());
            ckpt.buildCheckpointPack(4, {kPred, kSimt});

            for (TargetStructure s : {kPred, kSimt}) {
                for (const Plan& plan : kPlans) {
                    const FaultShape shape{FaultBehavior::Transient,
                                           plan.pattern};
                    for (std::size_t i = 0; i < plan.injections; ++i) {
                        const std::uint64_t seed = deriveSeed(
                            0xC7A1 + static_cast<std::uint64_t>(plan.pattern),
                            static_cast<std::uint64_t>(s) * 1000 + i);
                        const InjectionResult a =
                            runIndexedInjection(legacy, s, seed, i, shape);
                        const InjectionResult b =
                            runIndexedInjection(ckpt, s, seed, i, shape);
                        SCOPED_TRACE(testing::Message() << wname);
                        EXPECT_EQ(a.fault.bitIndex, b.fault.bitIndex);
                        EXPECT_EQ(a.fault.cycle, b.fault.cycle);
                        if (expectSoundControlVerdict(cfg, a, b))
                            ++dead_windows;
                        if (a.outcome != FaultOutcome::Masked)
                            ++unmasked_total;
                    }
                }
            }
        }
    }
    // The sweep must exercise every regime (deterministic given the
    // fixed seeds): dead windows and real SDC/DUE outcomes from
    // corrupted control state.
    EXPECT_GT(dead_windows, 0u);
    EXPECT_GT(unmasked_total, 0u);
}

/** Threads per block of controlKernel(). */
constexpr std::int32_t kControlBlock = 128;

/**
 * A kernel with one consumer of each kind of control state, at known
 * instruction indices, for the targeted flips of the ControlWindows
 * tests.  Two blocks of 128 threads (four warps on CUDA, two wavefronts
 * on SI; each block lands on its own SM of the small configs), per
 * thread:
 *
 *     v  = (tid < 8 ? 1 : 0)           guarded by p0
 *        + (tid < 4 ? 10 : 20)         SELP on p1
 *        + (p2 ? 100 : 0)              p2 = tid < 2, then a SETP guarded
 *                                      by p0 rewrites lanes 0..7 to false
 *        + (tid < 16 ? 2000 : 1000)    BRA on p3 inside SSY/SYNC
 *     threads with tid >= 64 wait on two global loads; all meet at BAR
 *     out[gid] = v; lanes with tid < 24 exit on !p4; the rest store v + 1
 *
 * so out[gid] = v + (tid >= 24).  Predicate registers p6 and p7 are
 * never named.
 */
struct ControlKernel
{
    WorkloadInstance inst;
    unsigned p0 = 0, p1 = 0, p2 = 0, p3 = 0, p4 = 0;
    std::uint32_t guardPc = 0;     ///< @p0 IADD
    std::uint32_t selpPc = 0;      ///< SELP on p1
    std::uint32_t setpMergePc = 0; ///< @p0 ISETP into p2
    std::uint32_t braPc = 0;       ///< @p3 BRA (diverges in warp 0)
    std::uint32_t popPc = 0;       ///< SYNC popping the pending path
    std::uint32_t exitPc = 0;      ///< @!p4 EXIT
};

ControlKernel
controlKernel(IsaDialect dialect)
{
    using K = KernelBuilder;
    KernelBuilder kb("control-consumers", dialect);
    ControlKernel k;
    const Operand tid = kb.vreg();
    const Operand cta = kb.vreg();
    const Operand base = kb.uniformReg();
    const Operand addr = kb.vreg();
    const Operand v = kb.vreg();
    const Operand w = kb.vreg();
    const Operand t = kb.vreg();
    k.p0 = kb.preg();
    k.p1 = kb.preg();
    k.p2 = kb.preg();
    k.p3 = kb.preg();
    k.p4 = kb.preg();
    const unsigned p5 = kb.preg();

    kb.s2r(tid, SpecialReg::TidX);
    kb.s2r(cta, SpecialReg::CtaIdX);
    kb.ldparam(base, 0);
    kb.imul(addr, cta, K::imm(kControlBlock));
    kb.iadd(addr, addr, tid);
    kb.shl(addr, addr, K::imm(2));
    kb.iadd(addr, addr, base);
    kb.mov(v, K::imm(0));
    kb.isetp(CmpOp::Lt, k.p0, tid, K::imm(8));
    k.guardPc = kb.instructionCount();
    kb.iadd(v, v, K::imm(1), ifP(k.p0));
    kb.isetp(CmpOp::Lt, k.p1, tid, K::imm(4));
    k.selpPc = kb.instructionCount();
    kb.selp(w, K::imm(10), K::imm(20), k.p1);
    kb.iadd(v, v, w);
    kb.isetp(CmpOp::Lt, k.p2, tid, K::imm(2));
    k.setpMergePc = kb.instructionCount();
    kb.isetp(CmpOp::Ge, k.p2, tid, K::imm(100), ifP(k.p0));
    kb.iadd(v, v, K::imm(100), ifP(k.p2));

    const Label reconv = kb.newLabel("reconv");
    const Label taken = kb.newLabel("taken");
    kb.ssy(reconv);
    kb.isetp(CmpOp::Lt, k.p3, tid, K::imm(16));
    k.braPc = kb.instructionCount();
    kb.bra(taken, ifP(k.p3));
    kb.iadd(v, v, K::imm(1000));
    k.popPc = kb.instructionCount();
    kb.sync();
    kb.bind(taken);
    kb.iadd(v, v, K::imm(2000));
    kb.sync();
    kb.bind(reconv);

    const Label slow = kb.newLabel("slow");
    const Label meet = kb.newLabel("meet");
    kb.isetp(CmpOp::Ge, p5, tid, K::imm(64));
    kb.bra(slow, ifP(p5));
    kb.bra(meet);
    kb.bind(slow);
    kb.ldg(t, addr);
    kb.iadd(v, v, t);
    kb.ldg(t, addr);
    kb.iadd(v, v, t);
    kb.bind(meet);
    kb.bar();

    kb.stg(addr, v);
    kb.isetp(CmpOp::Ge, k.p4, tid, K::imm(24));
    k.exitPc = kb.instructionCount();
    kb.exit(ifNotP(k.p4));
    kb.iadd(v, v, K::imm(1));
    kb.stg(addr, v);
    kb.exit();

    WorkloadInstance& inst = k.inst;
    inst.workloadName = "control-consumers";
    inst.program = kb.finish();
    inst.launch.blockX = kControlBlock;
    inst.launch.gridX = 2;
    ExpectedOutput out;
    out.label = "out";
    out.buffer = inst.image.allocBuffer(2 * kControlBlock);
    inst.launch.addParamAddr(out.buffer.byteAddr);
    for (std::uint32_t gid = 0; gid < out.buffer.words; ++gid) {
        const std::uint32_t x = gid % kControlBlock;
        out.golden.push_back((x < 8 ? 1 : 0) + (x < 4 ? 10 : 20) +
                             (x < 16 ? 2000 : 1000) + (x >= 24 ? 1 : 0));
    }
    inst.outputs.push_back(std::move(out));
    return k;
}

/** Warp slot 0 of SM 0 at the start of one cycle. */
struct SlotView
{
    bool used = false;
    std::uint32_t pc = 0;
    WarpStatus status = WarpStatus::Ready;
    std::size_t stackDepth = 0;
};

/**
 * Warp slot 0 of SM 0 at the start of every cycle of @p inst's golden
 * run, read from a checkpoint recorded at each cycle (in passes, so
 * only a few hundred deltas are held at once).
 */
std::vector<SlotView>
slotZeroTrace(const GpuConfig& cfg, const WorkloadInstance& inst,
              Cycle golden)
{
    constexpr Cycle kCyclesPerPass = 256;
    std::vector<SlotView> trace(golden);
    for (Cycle first = 0; first < golden; first += kCyclesPerPass) {
        CheckpointRecorder rec;
        for (Cycle c = std::max<Cycle>(first, 1);
             c < std::min(golden, first + kCyclesPerPass); ++c)
            rec.checkpointCycles.push_back(c);
        Gpu gpu(cfg);
        RunOptions record;
        record.recorder = &rec;
        EXPECT_TRUE(gpu.run(inst.program, inst.launch, inst.image, record)
                        .clean());
        for (const GpuCheckpointDelta& d : rec.deltas) {
            if (d.now < first)
                continue; // the cycle-0 delta of a later pass
            const SmCore::ControlState& sm = d.smControl.at(0);
            const WarpContext& w = sm.warps.at(0);
            trace[d.now] = {sm.warpSlotUsed.at(0), w.pc, w.status,
                            w.stack.size()};
        }
    }
    return trace;
}

/** The first cycle of @p trace from @p from on whose slot satisfies
 *  @p pred. */
template <typename Pred>
Cycle
firstCycle(const std::vector<SlotView>& trace, Pred pred, Cycle from = 0)
{
    for (Cycle c = from; c < trace.size(); ++c) {
        if (pred(trace[c]))
            return c;
    }
    ADD_FAILURE() << "no cycle of the golden run matches";
    return 0;
}

/** A targeted transient flip of warp slot 0 of SM 0. */
struct TargetedFlip
{
    const char* what;
    TargetStructure structure;
    std::uint64_t bit; ///< fault-space bit within slot 0 of SM 0
    Cycle cycle;
};

/**
 * Inject each of @p flips through both engines; each must be classified
 * soundly, and be a DeadWindow verdict exactly when @p dead.  A live flip
 * must also manifest (SDC or DUE), so it proves the consumer reads it.
 */
void
expectVerdicts(const GpuConfig& cfg, const ControlKernel& k,
               const std::vector<TargetedFlip>& flips, bool dead)
{
    FaultInjector legacy(cfg, k.inst);
    FaultInjector ckpt(cfg, k.inst);
    ckpt.adoptGoldenCycles(legacy.goldenCycles());
    ckpt.buildCheckpointPack(4, {kPred, kSimt});
    for (const TargetedFlip& flip : flips) {
        SCOPED_TRACE(testing::Message() << cfg.name << ": " << flip.what
                                        << " at cycle " << flip.cycle);
        FaultSpec f;
        f.structure = flip.structure;
        f.bitIndex = flip.bit;
        f.cycle = flip.cycle;
        const InjectionResult a = legacy.inject(f);
        const InjectionResult b = ckpt.inject(f);
        EXPECT_EQ(expectSoundControlVerdict(cfg, a, b), dead);
        if (dead)
            EXPECT_EQ(a.outcome, FaultOutcome::Masked);
        else
            EXPECT_NE(a.outcome, FaultOutcome::Masked);
    }
}

/** Fault-space bits of slot 0 of SM 0 in the SIMT target. */
std::uint64_t
simtPcBit(unsigned b)
{
    return b;
}

std::uint64_t
simtExitedBit(const GpuConfig& cfg, unsigned lane)
{
    return 32 + cfg.warpWidth + lane;
}

std::uint64_t
simtActiveBit(unsigned lane)
{
    return 32 + lane;
}

/** Bit @p field of stack entry @p entry: 0 is the kind, 1..32 the PC,
 *  33 + lane the mask. */
std::uint64_t
simtEntryBit(const GpuConfig& cfg, unsigned entry, unsigned field)
{
    return 32 + 2 * std::uint64_t{cfg.warpWidth} +
           entry * (1 + 32 + std::uint64_t{cfg.warpWidth}) + field;
}

/** Fault-space bit of @p lane of predicate @p preg in slot 0 of SM 0. */
std::uint64_t
predBit(const GpuConfig& cfg, unsigned preg, unsigned lane)
{
    return std::uint64_t{preg} * cfg.warpWidth + lane;
}

/**
 * Every consumer of a control unit reports a read first, so a flip that
 * lands inside the window ending at that read is simulated, never
 * prefiltered, and changes the output: a guard, SELP, SETP's merge of
 * guard-false lanes, a BRA and an EXIT condition, the PC of a Ready
 * warp and of a warp parked at a barrier, the exited mask a pop
 * consumes and a live stack entry popped at SYNC.  Each flip lands at
 * the first cycle warp 0 waits to issue the consumer, right after the
 * write the window opens with.  A flip at cycle 0 lands after the
 * kernel's first dispatch (Gpu::run dispatches before its first cycle),
 * so that dispatch opens the PC's window at cycle 0, not 1.
 */
TEST(ControlWindows, ConsumersInsideTheirWindowsAreSimulated)
{
    for (const GpuConfig& cfg :
         {test::smallCudaConfig(), test::smallSiConfig()}) {
        const ControlKernel k = controlKernel(cfg.dialect);
        FaultInjector golden(cfg, k.inst);
        const auto trace =
            slotZeroTrace(cfg, k.inst, golden.goldenCycles());
        const auto at_pc = [&](std::uint32_t pc) {
            return firstCycle(trace, [pc](const SlotView& s) {
                return s.used && s.status == WarpStatus::Ready &&
                       s.pc == pc;
            });
        };
        const Cycle parked = firstCycle(trace, [](const SlotView& s) {
            return s.used && s.status == WarpStatus::AtBarrier;
        });
        const Cycle pop = at_pc(k.popPc);
        ASSERT_EQ(trace[pop].stackDepth, 2u) << cfg.name;
        expectVerdicts(
            cfg, k,
            {{"PC at cycle 0", kSimt, simtPcBit(31), 0},
             {"guard", kPred, predBit(cfg, k.p0, 12), at_pc(k.guardPc)},
             {"SELP", kPred, predBit(cfg, k.p1, 6), at_pc(k.selpPc)},
             {"SETP merge of a guard-false lane", kPred,
              predBit(cfg, k.p2, 20), at_pc(k.setpMergePc)},
             {"BRA condition", kPred, predBit(cfg, k.p3, 20),
              at_pc(k.braPc)},
             {"EXIT condition", kPred, predBit(cfg, k.p4, 5),
              at_pc(k.exitPc)},
             {"PC of a Ready warp", kSimt, simtPcBit(31), at_pc(k.braPc)},
             {"PC of a warp parked at a barrier", kSimt, simtPcBit(31),
              parked},
             {"exited mask a pop consumes", kSimt, simtExitedBit(cfg, 3),
              pop},
             {"live stack entry popped at SYNC", kSimt,
              simtEntryBit(cfg, 1, 33 + 3), pop}},
            /*dead=*/false);
    }
}

/**
 * Control state no golden read reaches is prefiltered: a predicate
 * register the kernel never names, one after its last read, empty
 * stack cells, and the PC and masks after the warp's last issue (an
 * unused warp slot: FlipInUnusedWarpSlotIsMasked).
 */
TEST(ControlWindows, DeadControlStateIsPrefiltered)
{
    for (const GpuConfig& cfg :
         {test::smallCudaConfig(), test::smallSiConfig()}) {
        const ControlKernel k = controlKernel(cfg.dialect);
        FaultInjector golden(cfg, k.inst);
        const auto trace =
            slotZeroTrace(cfg, k.inst, golden.goldenCycles());
        const Cycle pop = firstCycle(trace, [&](const SlotView& s) {
            return s.used && s.status == WarpStatus::Ready &&
                   s.pc == k.popPc;
        });
        ASSERT_EQ(trace[pop].stackDepth, 2u) << cfg.name;
        const Cycle parked = firstCycle(trace, [](const SlotView& s) {
            return s.used && s.status == WarpStatus::AtBarrier;
        });
        const Cycle done = firstCycle(
            trace,
            [](const SlotView& s) {
                return !s.used || s.status == WarpStatus::Finished;
            },
            parked);
        expectVerdicts(
            cfg, k,
            {{"predicate never named", kPred,
              predBit(cfg, kNumPredRegs - 1, 0), pop},
             {"predicate after its last read", kPred,
              predBit(cfg, k.p0, 3), pop},
             {"empty stack cell above the top", kSimt,
              simtEntryBit(cfg, 2, 33), pop},
             {"kind bit of the deepest stack cell", kSimt,
              simtEntryBit(cfg, kSimtStackDepth - 1, 0), pop},
             {"PC after the last issue", kSimt, simtPcBit(31), done},
             {"active mask after the last issue", kSimt, simtActiveBit(0),
              done},
             {"exited mask after the last issue", kSimt,
              simtExitedBit(cfg, 0), done}},
            /*dead=*/true);
    }
}

/**
 * A SIMT bit group that straddles two units (a 65-bit entry of a 32-wide
 * slot, a 97-bit one of a 64-wide slot, or the PC/mask unit and the
 * first entry) has no one window, so it is never prefiltered, even after
 * the warp's last issue, where the same group width inside one unit is.
 */
TEST(ControlWindows, StraddlingSimtGroupsAreNeverPrefiltered)
{
    const GpuConfig cuda = test::smallCudaConfig();
    ASSERT_EQ(cuda.warpWidth, 32u);
    EXPECT_NE(simtUnitOfBit(cuda, 160), simtUnitOfBit(cuda, 161));
    for (const GpuConfig& cfg : {cuda, test::smallSiConfig()}) {
        const ControlKernel k = controlKernel(cfg.dialect);
        FaultInjector legacy(cfg, k.inst);
        FaultInjector ckpt(cfg, k.inst);
        ckpt.adoptGoldenCycles(legacy.goldenCycles());
        ckpt.buildCheckpointPack(4, {kSimt});
        const auto trace =
            slotZeroTrace(cfg, k.inst, legacy.goldenCycles());
        const Cycle parked = firstCycle(trace, [](const SlotView& s) {
            return s.used && s.status == WarpStatus::AtBarrier;
        });
        const Cycle done = firstCycle(
            trace,
            [](const SlotView& s) {
                return !s.used || s.status == WarpStatus::Finished;
            },
            parked);
        std::size_t straddling = 0;
        for (FaultPattern pattern :
             {FaultPattern::AdjacentDouble, FaultPattern::AdjacentQuad}) {
            const unsigned width = faultPatternWidth(pattern);
            for (std::uint64_t first = 0; first < simtBitsPerWarp(cfg);
                 first += width) {
                const bool straddles = simtUnitOfBit(cfg, first) !=
                                       simtUnitOfBit(cfg, first + width - 1);
                // Every straddling group, and the group next to each.
                if (!straddles &&
                    simtUnitOfBit(cfg, first) ==
                        simtUnitOfBit(cfg, first + width))
                    continue;
                SCOPED_TRACE(testing::Message()
                             << cfg.name << " bits " << first << "+"
                             << width);
                straddling += straddles;
                FaultSpec f;
                f.structure = kSimt;
                f.bitIndex = first;
                f.cycle = done;
                f.pattern = pattern;
                const InjectionResult b = ckpt.inject(f);
                EXPECT_EQ(expectSoundControlVerdict(cfg, legacy.inject(f), b),
                          !straddles);
            }
        }
        EXPECT_GT(straddling, 0u) << cfg.name;
    }
}

/** A kernel whose warps spend most of the run stalled on two dependent
 *  global loads: data[i] = data[data[i]] + 1, with data[i] = i. */
struct StallKernel
{
    Program program;
    LaunchConfig launch;
    MemoryImage image;
};

StallKernel
stallKernel(IsaDialect dialect)
{
    KernelBuilder kb("load-stalls", dialect);
    const Operand tid = kb.vreg();
    const Operand cta = kb.vreg();
    const Operand data = kb.uniformReg();
    kb.s2r(tid, SpecialReg::TidX);
    kb.s2r(cta, SpecialReg::CtaIdX);
    kb.ldparam(data, 0);
    const Operand addr = kb.vreg();
    kb.imul(addr, cta, KernelBuilder::imm(64));
    kb.iadd(addr, addr, tid);
    kb.shl(addr, addr, KernelBuilder::imm(2));
    kb.iadd(addr, addr, data);
    const Operand v = kb.vreg();
    kb.ldg(v, addr);
    const Operand chased = kb.vreg();
    kb.shl(chased, v, KernelBuilder::imm(2));
    kb.iadd(chased, chased, data);
    kb.ldg(v, chased);
    kb.iadd(v, v, KernelBuilder::imm(1));
    kb.stg(addr, v);
    kb.exit();

    StallKernel k{kb.finish(), {}, {}};
    const Buffer buf = k.image.allocBuffer(128);
    for (std::uint32_t i = 0; i < buf.words; ++i)
        k.image.setWord(buf, i, i);
    k.launch.blockX = 64;
    k.launch.gridX = 2;
    k.launch.addParamAddr(buf.byteAddr);
    return k;
}

/** What outcome classification sees of a run (occupancy averages
 *  left out: they may differ in the last ulp after a resume). */
std::string
runSummary(const RunResult& r, const MemoryImage& image)
{
    const SimStats& s = r.stats;
    StateHash h;
    h.mixWords(image.words().data(), image.words().size());
    return strprintf(
        "trap=%s cycles=%llu winst=%llu tinst=%llu ld=%llu st=%llu "
        "txn=%llu image=%016llx",
        std::string(trapKindName(r.trap)).c_str(),
        static_cast<unsigned long long>(s.cycles),
        static_cast<unsigned long long>(s.warpInstructions),
        static_cast<unsigned long long>(s.threadInstructions),
        static_cast<unsigned long long>(s.globalLoads),
        static_cast<unsigned long long>(s.globalStores),
        static_cast<unsigned long long>(s.globalTransactions),
        static_cast<unsigned long long>(h.value()));
}

/**
 * A fault on a sleeping SM wakes it.  While its warps wait on a global
 * load an SM has nothing to issue and sleeps until the load returns; a
 * PC fault selects another instruction (bit 0) or leaves the program
 * (bit 31), and so moves the warp's issue cycle.  At every cycle of the
 * golden run, a flip or a stuck-at-1 of those PC bits of warp slot 0 on
 * SM 0 must run exactly as it does when resumed from a checkpoint
 * recorded at that very cycle: a restore wakes every SM and re-derives
 * every issue cycle, so the resumed run is the reference.
 */
TEST(ControlFaults, FaultOnSleepingSmWakesIt)
{
    // Checkpoints recorded per pass, bounding the deltas held at once.
    constexpr Cycle kCyclesPerPass = 256;
    for (const GpuConfig& cfg :
         {test::smallCudaConfig(), test::smallSiConfig()}) {
        SCOPED_TRACE(cfg.name);
        const StallKernel k = stallKernel(cfg.dialect);
        Gpu scratch_gpu(cfg);
        const RunResult golden =
            scratch_gpu.run(k.program, k.launch, k.image);
        ASSERT_TRUE(golden.clean());
        const Cycle g = golden.stats.cycles;
        const std::string golden_summary =
            runSummary(golden, golden.memory);

        std::size_t mismatches = 0;
        std::size_t moved = 0; // faulted runs that left the golden run
        std::size_t checked = 0;
        for (Cycle first = 0; first < g; first += kCyclesPerPass) {
            const Cycle last = std::min(g, first + kCyclesPerPass);
            CheckpointRecorder rec;
            for (Cycle c = std::max<Cycle>(first, 1); c < last; ++c)
                rec.checkpointCycles.push_back(c);
            Gpu resume_gpu(cfg);
            RunOptions record;
            record.recorder = &rec;
            ASSERT_TRUE(resume_gpu.run(k.program, k.launch, k.image, record)
                            .clean());
            resume_gpu.anchorTo(rec.baseline);
            MemoryImage image = rec.baseline.memory;
            image.markCleanForRestore();

            for (const GpuCheckpointDelta& d : rec.deltas) {
                if (d.now < first || d.now >= last)
                    continue; // the cycle-0 delta of a later pass
                for (const BitIndex bit : {BitIndex{0}, BitIndex{31}}) {
                    for (const FaultBehavior behavior :
                         {FaultBehavior::Transient,
                          FaultBehavior::StuckAt1}) {
                        FaultSpec fault;
                        fault.structure = kSimt;
                        fault.bitIndex = bit; // SM 0, warp slot 0, PC
                        fault.cycle = d.now;
                        fault.behavior = behavior;

                        RunOptions scratch;
                        scratch.fault = fault;
                        scratch.maxCycles = 4 * g;
                        const RunResult a = scratch_gpu.run(
                            k.program, k.launch, k.image, scratch);

                        RunOptions resumed = scratch;
                        resumed.resumeDelta = &d;
                        resumed.imageInOut = &image;
                        const RunResult b = resume_gpu.run(
                            k.program, k.launch, MemoryImage{}, resumed);

                        const std::string want = runSummary(b, image);
                        const std::string got = runSummary(a, a.memory);
                        ++checked;
                        moved += got != golden_summary;
                        if (got != want && ++mismatches <= 5) {
                            ADD_FAILURE()
                                << faultBehaviorName(behavior) << " of PC bit "
                                << bit << " at cycle " << d.now
                                << "\n  from scratch: " << got
                                << "\n  resumed:      " << want;
                        }
                    }
                }
            }
        }
        EXPECT_EQ(checked, 4 * g);
        EXPECT_EQ(mismatches, 0u);
        EXPECT_GT(moved, 0u);
    }
}

/** Campaign path over a control structure: engine choice never changes
 *  the counts. */
TEST(ControlFaults, CampaignCountsInvariantUnderEngine)
{
    const GpuConfig cfg = test::smallCudaConfig();
    const WorkloadInstance inst = buildFor(cfg, "reduction");

    CampaignConfig legacy;
    legacy.plan.injections = 60;
    legacy.numThreads = 2;
    legacy.checkpoints = 0;

    CampaignConfig ckpt = legacy;
    ckpt.checkpoints = 6;

    for (TargetStructure s : {kPred, kSimt}) {
        const CampaignResult a = runCampaign(cfg, inst, s, legacy);
        const CampaignResult b = runCampaign(cfg, inst, s, ckpt);
        EXPECT_EQ(a.masked, b.masked) << targetStructureName(s);
        EXPECT_EQ(a.sdc, b.sdc) << targetStructureName(s);
        EXPECT_EQ(a.due, b.due) << targetStructureName(s);
    }
}

} // namespace
} // namespace gpr
