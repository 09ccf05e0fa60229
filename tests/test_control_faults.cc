/**
 * @file
 * Tests for the control-state fault targets (predicate file, SIMT
 * reconvergence stack + PC) introduced on top of the structure
 * registry: bit-mapping sanity, trap behaviour of corrupted PCs, ACE
 * coverage, and the differential guarantee that the legacy and
 * checkpoint-restore engines classify identical control-fault lists
 * identically (control structures skip the dead-window prefilter but
 * keep checkpoint restore + hash early-out), and that a PC fault wakes
 * an SM sleeping on a load.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/string_utils.hh"
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
    // with zero observable difference between engines.
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
        // Unused slots are outside the trajectory hash, so the
        // checkpointed run converges at the first boundary.
        EXPECT_TRUE(b.converged()) << targetStructureName(s);
        // But never via the dead-window prefilter, which is
        // word-storage-only.
        EXPECT_NE(b.shortcut, InjectionShortcut::DeadWindow)
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
 * for every injection the checkpointed engine (restore + hash
 * early-out, no prefilter) classifies exactly like the from-scratch
 * engine, across both dialects and divergence/barrier-heavy kernels.
 */
TEST(ControlFaults, DifferentialOutcomeEquality)
{
    constexpr std::size_t kInjections = 30;
    const GpuConfig configs[] = {test::smallCudaConfig(),
                                 test::smallSiConfig()};
    const char* workloads[] = {"vectoradd", "reduction", "histogram"};

    std::size_t converged_total = 0;
    std::size_t unmasked_total = 0;
    for (const GpuConfig& cfg : configs) {
        for (const char* wname : workloads) {
            const WorkloadInstance inst = buildFor(cfg, wname);

            FaultInjector legacy(cfg, inst);
            FaultInjector ckpt(cfg, inst);
            ckpt.adoptGoldenCycles(legacy.goldenCycles());
            ckpt.buildCheckpointPack(4);

            for (TargetStructure s : {kPred, kSimt}) {
                for (std::size_t i = 0; i < kInjections; ++i) {
                    const std::uint64_t seed = deriveSeed(
                        0xC7A1, static_cast<std::uint64_t>(s) * 1000 + i);
                    const InjectionResult a =
                        runIndexedInjection(legacy, s, seed, i);
                    const InjectionResult b =
                        runIndexedInjection(ckpt, s, seed, i);
                    EXPECT_EQ(a.fault.bitIndex, b.fault.bitIndex);
                    EXPECT_EQ(a.fault.cycle, b.fault.cycle);
                    EXPECT_EQ(a.outcome, b.outcome)
                        << wname << " on " << cfg.name << " "
                        << targetStructureName(s) << " bit "
                        << a.fault.bitIndex << " cycle " << a.fault.cycle;
                    EXPECT_EQ(a.trap, b.trap);
                    EXPECT_FALSE(a.converged());
                    EXPECT_NE(b.shortcut, InjectionShortcut::DeadWindow);
                    if (b.converged()) {
                        ++converged_total;
                        EXPECT_EQ(b.outcome, FaultOutcome::Masked);
                    }
                    if (a.outcome != FaultOutcome::Masked)
                        ++unmasked_total;
                }
            }
        }
    }
    // The sweep must exercise both interesting regimes (deterministic
    // given the fixed seeds): hash-convergence shortcuts and real
    // SDC/DUE outcomes from corrupted control state.
    EXPECT_GT(converged_total, 0u);
    EXPECT_GT(unmasked_total, 0u);
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
        static_cast<unsigned long long>(StateHash::wordsDigest(
            image.words().data(), image.words().size(), 0)));
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
