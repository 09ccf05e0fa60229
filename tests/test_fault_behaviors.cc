/**
 * @file
 * Tests for the generalized fault-behavior API: behavior x pattern x
 * target fault descriptions (transient, stuck-at, intermittent; single
 * and adjacent multi-bit), the persistence hooks behind them, the
 * bit-identity guarantee for default-shape campaigns, and the full
 * orchestrated path (adaptive stopping, store resume, spec identity)
 * under non-default shapes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "core/export.hh"
#include "core/orchestrator.hh"
#include "reliability/campaign.hh"
#include "reliability/fault_injector.hh"
#include "sim/sm_core.hh"
#include "sim/storage.hh"
#include "sim/structure_registry.hh"
#include "sim_test_util.hh"
#include "workloads/workloads.hh"

namespace gpr {
namespace {

constexpr auto kRf = TargetStructure::VectorRegisterFile;
constexpr auto kLds = TargetStructure::SharedMemory;
constexpr auto kPred = TargetStructure::PredicateFile;
constexpr auto kSimt = TargetStructure::SimtStack;

constexpr FaultBehavior kPersistentBehaviors[] = {
    FaultBehavior::StuckAt0, FaultBehavior::StuckAt1,
    FaultBehavior::Intermittent};

WorkloadInstance
buildFor(const GpuConfig& cfg, const char* workload)
{
    return makeWorkload(workload)->build(cfg.dialect, {});
}

std::string
tempStorePath(const char* name)
{
    return testing::TempDir() + "gpr_behaviors_" + name + ".jsonl";
}

std::vector<std::string>
storeLines(const std::string& path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

void
expectIdenticalReports(const StudyResult& a, const StudyResult& b)
{
    ASSERT_EQ(a.reports.size(), b.reports.size());
    for (std::size_t i = 0; i < a.reports.size(); ++i) {
        const ReliabilityReport& ra = a.reports[i];
        const ReliabilityReport& rb = b.reports[i];
        EXPECT_EQ(ra.workload, rb.workload);
        EXPECT_EQ(ra.cycles, rb.cycles);
        ASSERT_EQ(ra.structures.size(), rb.structures.size());
        for (std::size_t k = 0; k < ra.structures.size(); ++k) {
            const StructureReport& sa = ra.structures[k];
            const StructureReport& sb = rb.structures[k];
            EXPECT_EQ(sa.applicable, sb.applicable);
            EXPECT_EQ(sa.injections, sb.injections);
            EXPECT_EQ(sa.avfFi, sb.avfFi);
            EXPECT_EQ(sa.sdcRate, sb.sdcRate);
            EXPECT_EQ(sa.dueRate, sb.dueRate);
            EXPECT_EQ(sa.avfCi.lo, sb.avfCi.lo);
            EXPECT_EQ(sa.avfCi.hi, sb.avfCi.hi);
            EXPECT_EQ(sa.behavior, sb.behavior);
            EXPECT_EQ(sa.pattern, sb.pattern);
        }
        EXPECT_EQ(ra.epf.epf(), rb.epf.epf());
    }
}

TEST(FaultModel, NamesRoundTripAndWidths)
{
    for (unsigned i = 0; i < kNumFaultBehaviors; ++i) {
        const auto b = static_cast<FaultBehavior>(i);
        FaultBehavior parsed;
        ASSERT_TRUE(tryFaultBehaviorFromName(faultBehaviorName(b), parsed));
        EXPECT_EQ(parsed, b);
        EXPECT_EQ(faultBehaviorFromName(faultBehaviorName(b)), b);
    }
    for (unsigned i = 0; i < kNumFaultPatterns; ++i) {
        const auto p = static_cast<FaultPattern>(i);
        FaultPattern parsed;
        ASSERT_TRUE(tryFaultPatternFromName(faultPatternName(p), parsed));
        EXPECT_EQ(parsed, p);
    }
    EXPECT_EQ(faultPatternWidth(FaultPattern::SingleBit), 1u);
    EXPECT_EQ(faultPatternWidth(FaultPattern::AdjacentDouble), 2u);
    EXPECT_EQ(faultPatternWidth(FaultPattern::AdjacentQuad), 4u);

    FaultBehavior b;
    EXPECT_FALSE(tryFaultBehaviorFromName("stuck-at-2", b));
    EXPECT_THROW(faultBehaviorFromName("permanent"), FatalError);
    FaultPattern p;
    EXPECT_FALSE(tryFaultPatternFromName("double", p));
    EXPECT_THROW(faultPatternFromName("burst"), FatalError);

    EXPECT_FALSE(faultBehaviorPersistent(FaultBehavior::Transient));
    for (FaultBehavior pb : kPersistentBehaviors)
        EXPECT_TRUE(faultBehaviorPersistent(pb));
    EXPECT_TRUE(FaultShape{}.isDefault());
    EXPECT_FALSE(
        (FaultShape{FaultBehavior::StuckAt0, FaultPattern::SingleBit}
             .isDefault()));
}

TEST(FaultModel, BareFaultSpecAggregateStaysTransientSingleBit)
{
    // The PR-4-era aggregate initialization must keep compiling and
    // must mean exactly what it used to: one transient single-bit flip.
    const FaultSpec fault{kRf, 17, 1000};
    EXPECT_EQ(fault.behavior, FaultBehavior::Transient);
    EXPECT_EQ(fault.pattern, FaultPattern::SingleBit);
    EXPECT_TRUE(fault.shape().isDefault());
    EXPECT_FALSE(fault.persistent());
    EXPECT_FALSE(faultForcedValue(fault));
}

TEST(FaultModel, ApplyFaultMaskEqualsRepeatedSingleFlips)
{
    const GpuConfig cfg = test::smallCudaConfig();
    SmCore a(cfg, 0);
    SmCore b(cfg, 0);

    a.applyFault(kRf, 64, 0b1011);
    b.applyFault(kRf, 64, 1);
    b.applyFault(kRf, 65, 1);
    b.applyFault(kRf, 67, 1);

    StateHash ha, hb, fresh;
    a.hashInto(ha);
    b.hashInto(hb);
    SmCore(cfg, 0).hashInto(fresh);
    EXPECT_EQ(ha.value(), hb.value());
    EXPECT_NE(ha.value(), fresh.value());
}

TEST(FaultModel, StuckBitOverlayForcesReadsAndRetainsRawValue)
{
    WordStorage st(8);
    st.write(3, 0x0000F0F0u);
    st.setStuckBits(3, 0x0000000Fu, 0x00000005u);

    // Binding starts disabled: reads see the raw value.
    EXPECT_EQ(st.read(3), 0x0000F0F0u);

    st.setStuckEnabled(true);
    EXPECT_EQ(st.read(3), 0x0000F0F5u);
    EXPECT_EQ(st.read(2), 0u) << "overlay must only affect its word";

    // Writes land underneath the overlay; the raw value resurfaces
    // when the fault deactivates (intermittent retention semantics).
    st.write(3, 0xFFFFFFFFu);
    EXPECT_EQ(st.read(3), 0xFFFFFFF5u);
    st.setStuckEnabled(false);
    EXPECT_EQ(st.read(3), 0xFFFFFFFFu);

    st.setStuckEnabled(true);
    st.clearStuck();
    EXPECT_EQ(st.read(3), 0xFFFFFFFFu);
}

TEST(FaultModel, DefaultShapeCampaignBitIdenticalToShapelessApi)
{
    // A campaign with the defaulted shape field must classify exactly
    // like the pre-redesign API surface: same per-injection faults,
    // same counts.
    const GpuConfig& cfg = gpuConfig(GpuModel::QuadroFx5600);
    const WorkloadInstance inst = buildFor(cfg, "vectoradd");

    FaultInjector injector(cfg, inst);
    injector.buildCheckpointPack(4);
    for (std::size_t i = 0; i < 20; ++i) {
        const InjectionResult a = runIndexedInjection(injector, kRf, 7, i);
        const InjectionResult b = runIndexedInjection(
            injector, kRf, 7, i,
            FaultShape{FaultBehavior::Transient, FaultPattern::SingleBit});
        EXPECT_EQ(a.fault.bitIndex, b.fault.bitIndex);
        EXPECT_EQ(a.fault.cycle, b.fault.cycle);
        EXPECT_EQ(a.outcome, b.outcome);
        EXPECT_EQ(a.trap, b.trap);
        EXPECT_EQ(a.shortcut, b.shortcut);
    }

    CampaignConfig plain;
    plain.plan.injections = 40;
    plain.numThreads = 2;
    CampaignConfig shaped = plain;
    shaped.shape = FaultShape{};
    const CampaignResult x = runCampaign(cfg, inst, kRf, plain);
    const CampaignResult y = runCampaign(cfg, inst, kRf, shaped);
    EXPECT_EQ(x.masked, y.masked);
    EXPECT_EQ(x.sdc, y.sdc);
    EXPECT_EQ(x.due, y.due);
}

TEST(FaultModel, PersistentDifferentialAcrossEnginesAndStructures)
{
    // For every persistent behavior, the checkpoint-restore engine must
    // classify exactly like the from-scratch engine.  The legacy engine
    // never shortcuts; the checkpoint engine may take the persistent
    // fast path (the value-residency prefilter) on word storage — and
    // any shortcut it takes must agree with the legacy engine's fully
    // simulated verdict, which is the differential gate for the fast
    // path's soundness.  Control-bit structures (pred/simt) have no
    // fast path and must stay shortcut-free.
    constexpr std::size_t kInjections = 12;
    const GpuConfig configs[] = {test::smallCudaConfig(),
                                 test::smallSiConfig()};

    std::size_t unmasked_total = 0;
    for (const GpuConfig& cfg : configs) {
        const WorkloadInstance inst = buildFor(cfg, "reduction");
        FaultInjector legacy(cfg, inst);
        FaultInjector ckpt(cfg, inst);
        ckpt.adoptGoldenCycles(legacy.goldenCycles());
        ckpt.buildCheckpointPack(4);

        for (TargetStructure s : {kRf, kLds, kPred, kSimt}) {
            for (FaultBehavior behavior : kPersistentBehaviors) {
                const FaultShape shape{behavior, FaultPattern::SingleBit};
                for (std::size_t i = 0; i < kInjections; ++i) {
                    const std::uint64_t seed = deriveSeed(
                        0xBEAF, static_cast<std::uint64_t>(s) * 100 + i);
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
                    // The persistent fast path never reuses the
                    // transient-only dead-window shortcut, and a
                    // shortcut always means Masked.
                    EXPECT_NE(b.shortcut, InjectionShortcut::DeadWindow);
                    if (b.shortcut != InjectionShortcut::None) {
                        EXPECT_EQ(b.outcome, FaultOutcome::Masked);
                    }
                    if (s == kPred || s == kSimt) {
                        EXPECT_EQ(b.shortcut, InjectionShortcut::None);
                    }
                    if (behavior == FaultBehavior::Intermittent) {
                        EXPECT_GE(a.fault.intermittentPeriod, 8u);
                        EXPECT_LE(a.fault.intermittentPeriod, 64u);
                        EXPECT_GE(a.fault.intermittentActive, 1u);
                        EXPECT_LT(a.fault.intermittentActive,
                                  a.fault.intermittentPeriod);
                        EXPECT_EQ(a.fault.intermittentPeriod,
                                  b.fault.intermittentPeriod);
                        EXPECT_EQ(a.fault.intermittentActive,
                                  b.fault.intermittentActive);
                        EXPECT_EQ(a.fault.intermittentValue,
                                  b.fault.intermittentValue);
                    }
                    if (a.outcome != FaultOutcome::Masked)
                        ++unmasked_total;
                }
            }
        }
    }
    // The sweep must hit real failures, or it proves nothing.
    EXPECT_GT(unmasked_total, 0u);
}

TEST(FaultModel, StuckAgreeCycleTracksLastDisagreeingRead)
{
    const GpuConfig cfg = test::smallCudaConfig();
    FaultWindowRecorder rec(cfg, registeredStructures());
    // Word 7 of SM 0's register file: read as 0b1 at cycle 10, then as
    // 0b0 at cycle 20.
    rec.onRead(kRf, 0, 7, 0x1, 10);
    rec.onRead(kRf, 0, 7, 0x0, 20);
    FaultWindows fw;
    rec.finalize(fw);

    // Bit 0 last reads 0 at cycle 20, so stuck-at-1 is benign only from
    // cycle 21; it last reads 1 at cycle 10, so stuck-at-0 from 11.
    EXPECT_EQ(fw.stuckAgreeCycle(kRf, 7, 0, 1, true), 21u);
    EXPECT_EQ(fw.stuckAgreeCycle(kRf, 7, 0, 1, false), 11u);
    // Bit 1 reads 0 both times: stuck-at-0 is benign from the start,
    // stuck-at-1 only after the last read.
    EXPECT_EQ(fw.stuckAgreeCycle(kRf, 7, 1, 1, false), 0u);
    EXPECT_EQ(fw.stuckAgreeCycle(kRf, 7, 1, 1, true), 21u);
    // A never-read word is benign at any cycle.
    EXPECT_EQ(fw.stuckAgreeCycle(kRf, 3, 5, 1, true), 0u);
    // Multi-bit groups take the max over their bits.
    EXPECT_EQ(fw.stuckAgreeCycle(kRf, 7, 0, 2, false), 11u);
    // Control-bit structures have no residency: stay conservative.
    EXPECT_EQ(fw.stuckAgreeCycle(kPred, 0, 0, 1, true),
              FaultWindows::kNeverAgrees);
}

TEST(FaultModel, ResidencyPrefilterVerdictsMatchFullSimulation)
{
    // Randomized (structure, bit, cycle) samples: every prefilter
    // verdict of the fast path must agree with a full from-scratch
    // simulation of the same fault, and a ValueResidency shortcut must
    // only ever claim Masked faults the legacy engine also masks.
    const GpuConfig configs[] = {test::smallCudaConfig(),
                                 test::smallSiConfig()};
    constexpr auto kSrf = TargetStructure::ScalarRegisterFile;

    std::size_t residency_hits = 0;
    for (const GpuConfig& cfg : configs) {
        const WorkloadInstance inst = buildFor(cfg, "reduction");
        FaultInjector legacy(cfg, inst);
        FaultInjector ckpt(cfg, inst);
        ckpt.adoptGoldenCycles(legacy.goldenCycles());
        ckpt.buildCheckpointPack(4);

        Rng rng(0x51CC + cfg.numSms);
        for (TargetStructure s : {kRf, kLds, kSrf}) {
            if (legacy.gpu().structureBits(s) == 0)
                continue; // no SRF on this chip
            for (FaultBehavior behavior :
                 {FaultBehavior::StuckAt0, FaultBehavior::StuckAt1}) {
                for (int i = 0; i < 10; ++i) {
                    FaultSpec fault;
                    fault.structure = s;
                    fault.behavior = behavior;
                    fault.bitIndex =
                        rng.below(legacy.gpu().structureBits(s));
                    fault.cycle = rng.below(legacy.goldenCycles());
                    const InjectionResult b = ckpt.inject(fault);
                    const InjectionResult a = legacy.inject(fault);
                    EXPECT_EQ(a.outcome, b.outcome)
                        << cfg.name << " " << targetStructureName(s)
                        << " " << faultBehaviorName(behavior) << " bit "
                        << fault.bitIndex << " cycle " << fault.cycle;
                    EXPECT_EQ(a.trap, b.trap);
                    if (b.shortcut == InjectionShortcut::ValueResidency) {
                        EXPECT_EQ(a.outcome, FaultOutcome::Masked);
                        ++residency_hits;
                    }
                }
            }
        }
    }
    // The battery must actually exercise the prefilter.
    EXPECT_GT(residency_hits, 0u);
}

TEST(FaultModel, StuckAtPinnedCellMatchesLegacy)
{
    // Pinned cell: vectoradd on the GTX 480, register file, stuck-at-1,
    // at the injection bench's campaign seed and the default pack
    // budget.  Every one of the first 200 injections that the residency
    // prefilter leaves restores, simulates to the end and must match
    // the from-scratch engine's outcome and trap.  Injections 3, 72 and
    // 174 are among them: a run that rejoins the golden state past its
    // residency agree cycle still replays to completion.
    const GpuConfig& cfg = gpuConfig(GpuModel::GeforceGtx480);
    const WorkloadInstance inst = buildFor(cfg, "vectoradd");
    FaultInjector legacy(cfg, inst);
    FaultInjector ckpt(cfg, inst);
    ckpt.adoptGoldenCycles(legacy.goldenCycles());
    ckpt.buildCheckpointPack(kDefaultCheckpoints);

    const std::uint64_t seed =
        deriveSeed(0xC0FFEE, static_cast<std::uint64_t>(kRf));
    const FaultShape shape{FaultBehavior::StuckAt1, FaultPattern::SingleBit};
    std::vector<std::size_t> simulated;
    for (std::size_t i = 0; i < 200; ++i) {
        const InjectionResult b =
            runIndexedInjection(ckpt, kRf, seed, i, shape);
        if (b.shortcut != InjectionShortcut::None)
            continue;
        simulated.push_back(i);
        const InjectionResult a = legacy.inject(b.fault);
        EXPECT_EQ(a.outcome, b.outcome) << "injection " << i;
        EXPECT_EQ(a.trap, b.trap) << "injection " << i;
    }
    for (std::size_t i : {3, 72, 174}) {
        EXPECT_NE(std::find(simulated.begin(), simulated.end(), i),
                  simulated.end())
            << "injection " << i << " did not simulate";
    }
}

TEST(FaultModel, PersistentCampaignsBitIdenticalAcrossEngines)
{
    // Campaign-level differential: the fast-path engine (residency
    // prefilter) must reproduce the from-scratch engine's counts
    // exactly, per persistent behavior.
    const GpuConfig cfg = test::smallCudaConfig();
    const WorkloadInstance inst = buildFor(cfg, "reduction");

    for (FaultBehavior behavior : kPersistentBehaviors) {
        CampaignConfig fast;
        fast.plan.injections = 48;
        fast.numThreads = 2;
        fast.shape = FaultShape{behavior, FaultPattern::SingleBit};
        CampaignConfig legacy = fast;
        legacy.checkpoints = 0;
        const CampaignResult x = runCampaign(cfg, inst, kRf, fast);
        const CampaignResult y = runCampaign(cfg, inst, kRf, legacy);
        EXPECT_EQ(x.masked, y.masked) << faultBehaviorName(behavior);
        EXPECT_EQ(x.sdc, y.sdc) << faultBehaviorName(behavior);
        EXPECT_EQ(x.due, y.due) << faultBehaviorName(behavior);
    }
}

TEST(FaultModel, MultiBitDifferentialAndAlignment)
{
    constexpr std::size_t kInjections = 15;
    const GpuConfig cfg = test::smallCudaConfig();
    const WorkloadInstance inst = buildFor(cfg, "histogram");

    FaultInjector legacy(cfg, inst);
    FaultInjector ckpt(cfg, inst);
    ckpt.adoptGoldenCycles(legacy.goldenCycles());
    ckpt.buildCheckpointPack(4);

    for (FaultPattern pattern :
         {FaultPattern::AdjacentDouble, FaultPattern::AdjacentQuad}) {
        const FaultShape shape{FaultBehavior::Transient, pattern};
        const unsigned width = faultPatternWidth(pattern);
        for (TargetStructure s : {kRf, kLds, kPred, kSimt}) {
            for (std::size_t i = 0; i < kInjections; ++i) {
                const std::uint64_t seed = deriveSeed(
                    0x3B17, static_cast<std::uint64_t>(s) * 100 + i);
                const InjectionResult a =
                    runIndexedInjection(legacy, s, seed, i, shape);
                const InjectionResult b =
                    runIndexedInjection(ckpt, s, seed, i, shape);
                EXPECT_EQ(a.outcome, b.outcome)
                    << targetStructureName(s) << " width " << width
                    << " bit " << a.fault.bitIndex;
                EXPECT_EQ(a.trap, b.trap);
                // The injected group is the sampled bit's width-aligned
                // neighborhood (SM-local), so explicitly aligning the
                // sampled bit must classify identically.
                const std::uint64_t bits_per_sm =
                    structureSpec(s).bitsPerSm(cfg);
                FaultSpec aligned = a.fault;
                aligned.bitIndex -= (a.fault.bitIndex % bits_per_sm) % width;
                const InjectionResult c = legacy.inject(aligned);
                EXPECT_EQ(c.outcome, a.outcome)
                    << targetStructureName(s) << " width " << width
                    << " bit " << a.fault.bitIndex;
                EXPECT_EQ(c.trap, a.trap);
            }
        }
    }
}

TEST(FaultModel, StuckAtDivergesFromTransientOnControlState)
{
    // The headline experiment's mechanism at unit scale: the same
    // sampled fault list classified under stuck-at-0 must produce
    // different counts than under the transient model on the predicate
    // file (a persistent fault keeps re-corrupting guard bits a
    // one-shot flip recovers from).  The cell (reduction on the FX
    // 5600, the paper-grid seeds) is one where the divergence is large:
    // every sampled transient predicate flip masks, while stuck-at-0
    // produces SDC.
    const GpuConfig& cfg = gpuConfig(GpuModel::QuadroFx5600);
    const WorkloadInstance inst = buildFor(cfg, "reduction");

    CampaignConfig transient;
    transient.plan.injections = 80;
    transient.numThreads = 2;
    transient.seed =
        deriveSeed(0xC0FFEE, static_cast<std::uint64_t>(kPred));
    CampaignConfig stuck = transient;
    stuck.shape = FaultShape{FaultBehavior::StuckAt0,
                             FaultPattern::SingleBit};

    const CampaignResult t = runCampaign(cfg, inst, kPred, transient);
    const CampaignResult p = runCampaign(cfg, inst, kPred, stuck);
    ASSERT_EQ(t.injections, p.injections);
    EXPECT_NE(std::make_pair(t.sdc, t.due), std::make_pair(p.sdc, p.due))
        << "stuck-at-0 and transient classified every sampled predicate "
           "fault identically";
    EXPECT_GT(p.sdc + p.due, t.sdc + t.due)
        << "persistent predicate faults should be strictly more harmful "
           "on this cell";
}

TEST(FaultModel, AdaptiveStuckAtStudyMatchesStandaloneCampaign)
{
    // A stuck-at campaign through the adaptive orchestrator: same
    // stopping point and counts as standalone runCampaign(), and the
    // stopping decision recomputable from the outcome prefix alone.
    StudySpec spec;
    spec.workloads = {"vectoradd"};
    spec.gpus = {GpuModel::QuadroFx5600};
    spec.structures = {kPred};
    spec.plan.margin = 0.1;
    spec.plan.confidence = 0.9;
    spec.plan.maxInjections = 200;
    spec.faultBehavior = FaultBehavior::StuckAt0;
    spec.verbose = false;
    const StudyResult result = runStudy(spec);
    const StructureReport& sr =
        result.reports.front().forStructure(kPred);
    EXPECT_EQ(sr.behavior, FaultBehavior::StuckAt0);
    EXPECT_EQ(sr.pattern, FaultPattern::SingleBit);
    EXPECT_GT(sr.injections, 0u);

    const GpuConfig& cfg = gpuConfig(GpuModel::QuadroFx5600);
    WorkloadParams params;
    params.seed = spec.workloadSeed;
    const WorkloadInstance inst =
        makeWorkload("vectoradd")->build(cfg.dialect, params);
    CampaignConfig cc;
    cc.plan = spec.plan;
    cc.seed = deriveSeed(spec.seed, static_cast<std::uint64_t>(kPred));
    cc.numThreads = 1;
    cc.shape = spec.faultShape();
    const CampaignResult fi = runCampaign(cfg, inst, kPred, cc);

    EXPECT_EQ(sr.injections, fi.injections);
    EXPECT_EQ(sr.avfFi, fi.avf());
    EXPECT_EQ(sr.sdcRate, fi.sdcRate());
    EXPECT_EQ(sr.dueRate, fi.dueRate());

    // Replay the stopping rule over the recorded outcome prefix: the
    // campaign must have stopped at the first satisfying look (or the
    // cap) — a pure function of (sdc, due, n), shape included only
    // through the outcomes themselves.
    FaultInjector injector(cfg, inst);
    injector.buildCheckpointPack(spec.checkpoints);
    std::uint64_t sdc = 0, due = 0;
    std::uint64_t expected_stop = spec.plan.resolvedMaxInjections();
    std::uint64_t n = 0;
    for (std::uint64_t look : sequentialSchedule(spec.plan)) {
        for (; n < look; ++n) {
            const InjectionResult r = runIndexedInjection(
                injector, kPred, cc.seed, n, cc.shape);
            sdc += r.outcome == FaultOutcome::Sdc;
            due += r.outcome == FaultOutcome::Due;
        }
        if (evaluateSequentialStop(sdc, due, n, spec.plan).stop) {
            expected_stop = n;
            break;
        }
    }
    EXPECT_EQ(sr.injections, expected_stop);
}

TEST(FaultModel, StuckAtStudyKillAndResumeIsBitIdentical)
{
    const std::string path = tempStorePath("resume");
    StudySpec first;
    first.workloads = {"reduction"};
    first.gpus = {GpuModel::QuadroFx5600};
    first.structures = {kRf, kSimt};
    first.plan.injections = 24;
    first.faultBehavior = FaultBehavior::StuckAt1;
    first.faultPattern = FaultPattern::AdjacentDouble;
    first.shardsPerCampaign = 4;
    first.jobs = 1;
    first.storePath = path;
    first.verbose = false;
    StudyProgress full_progress;
    const StudyResult full = runStudy(first, &full_progress);
    ASSERT_EQ(full_progress.executedShards, 8u);

    // Every shard record carries the non-default shape and parses back.
    const auto lines = storeLines(path);
    ASSERT_EQ(lines.size(), 9u);
    for (std::size_t i = 1; i < lines.size(); ++i) {
        EXPECT_NE(lines[i].find("\"behavior\":\"stuck-at-1\""),
                  std::string::npos)
            << lines[i];
        ShardRecord r;
        ASSERT_TRUE(parseShardRecord(lines[i], r)) << lines[i];
        EXPECT_EQ(r.key.behavior, FaultBehavior::StuckAt1);
        EXPECT_EQ(r.key.pattern, FaultPattern::AdjacentDouble);
    }

    // Kill after 3 shards (plus a torn tail line) and resume.
    {
        std::ofstream out(path, std::ios::trunc);
        for (std::size_t i = 0; i < 4; ++i)
            out << lines[i] << '\n';
        out << lines[4].substr(0, lines[4].size() / 2);
    }
    StudySpec second = first;
    second.jobs = 4;
    second.resume = true;
    StudyProgress resumed_progress;
    const StudyResult resumed = runStudy(second, &resumed_progress);
    EXPECT_EQ(resumed_progress.resumedShards, 3u);
    EXPECT_EQ(resumed_progress.executedShards, 5u);
    expectIdenticalReports(full, resumed);

    // A doctored spec (same everything, default behavior) must be
    // refused: the shape is campaign identity.
    StudySpec doctored = second;
    doctored.faultBehavior = FaultBehavior::Transient;
    try {
        runStudy(doctored);
        FAIL() << "expected FatalError on shape mismatch";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find(first.campaignHashHex()),
                  std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

TEST(FaultModel, ShapeIsCampaignIdentityOnlyWhenNonDefault)
{
    StudySpec base;
    base.verbose = false;

    // Explicit defaults hash identically to an untouched spec — the
    // pre-redesign hash stays valid for every default-shape store.
    StudySpec explicit_default = base;
    explicit_default.faultBehavior = FaultBehavior::Transient;
    explicit_default.faultPattern = FaultPattern::SingleBit;
    EXPECT_EQ(explicit_default.campaignHash(), base.campaignHash());

    StudySpec stuck = base;
    stuck.faultBehavior = FaultBehavior::StuckAt0;
    EXPECT_NE(stuck.campaignHash(), base.campaignHash());
    StudySpec quad = base;
    quad.faultPattern = FaultPattern::AdjacentQuad;
    EXPECT_NE(quad.campaignHash(), base.campaignHash());
    EXPECT_NE(stuck.campaignHash(), quad.campaignHash());

    // JSON round-trip, equality and dump contents.
    StudySpec shaped = base;
    shaped.faultBehavior = FaultBehavior::Intermittent;
    shaped.faultPattern = FaultPattern::AdjacentDouble;
    const std::string json = shaped.toJsonString();
    EXPECT_NE(json.find("\"fault_behavior\":\"intermittent\""),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"fault_pattern\":\"adjacent-double\""),
              std::string::npos)
        << json;
    const StudySpec back = StudySpec::fromJson(json);
    EXPECT_TRUE(back == shaped);
    EXPECT_EQ(back.campaignHash(), shaped.campaignHash());
    EXPECT_FALSE(back == base);

    // A default spec's JSON still names the shape (dump-spec fixed
    // point), parsing back to the default.
    const std::string default_json = base.toJsonString();
    EXPECT_NE(default_json.find("\"fault_behavior\":\"transient\""),
              std::string::npos);
    EXPECT_TRUE(StudySpec::fromJson(default_json) == base);
}

TEST(FaultModel, DefaultStoreRecordsCarryNoShapeKeys)
{
    // Default-shape stores must stay byte-compatible with pre-shape
    // builds: no behavior/pattern keys on any shard record.
    const std::string path = tempStorePath("default");
    StudySpec spec;
    spec.workloads = {"vectoradd"};
    spec.gpus = {GpuModel::QuadroFx5600};
    spec.structures = {kRf};
    spec.plan.injections = 12;
    spec.shardsPerCampaign = 2;
    spec.storePath = path;
    spec.verbose = false;
    runStudy(spec);
    const auto lines = storeLines(path);
    ASSERT_EQ(lines.size(), 3u);
    for (std::size_t i = 1; i < lines.size(); ++i) {
        EXPECT_EQ(lines[i].find("\"behavior\""), std::string::npos)
            << lines[i];
        EXPECT_EQ(lines[i].find("\"pattern\""), std::string::npos)
            << lines[i];
        ShardRecord r;
        ASSERT_TRUE(parseShardRecord(lines[i], r));
        EXPECT_EQ(r.key.behavior, FaultBehavior::Transient);
        EXPECT_EQ(r.key.pattern, FaultPattern::SingleBit);
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace gpr
