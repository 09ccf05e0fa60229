/**
 * @file
 * Checkpoint-restore injection engine tests: snapshot/restore round
 * trips, resumed-run equivalence, and the exhaustive differential
 * guarantee — per-injection outcomes of the checkpointed engine are
 * bit-identical to the legacy from-scratch engine across structures,
 * workloads and both ISA dialects.
 */

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/orchestrator.hh"
#include "reliability/campaign.hh"
#include "reliability/fault_injector.hh"
#include "sim/storage.hh"
#include "sim/structure_registry.hh"
#include "sim_test_util.hh"
#include "workloads/workloads.hh"

namespace gpr {
namespace {

WorkloadInstance
buildFor(const GpuConfig& cfg, const char* workload)
{
    return makeWorkload(workload)->build(cfg.dialect, {});
}

/**
 * Record the cycle-0 baseline of @p inst plus delta checkpoints at a
 * quarter, half and three quarters of @p golden's run.
 */
CheckpointRecorder
recordCheckpoints(Gpu& gpu, const WorkloadInstance& inst,
                  const RunResult& golden)
{
    const Cycle g = golden.stats.cycles;
    EXPECT_GT(g, 4u);
    CheckpointRecorder recorder;
    recorder.checkpointCycles = {g / 4, g / 2, (3 * g) / 4};
    RunOptions options;
    options.recorder = &recorder;
    const RunResult rec = gpu.run(inst.program, inst.launch, inst.image,
                                  options);
    EXPECT_TRUE(rec.clean());
    EXPECT_EQ(rec.stats.cycles, g);
    EXPECT_EQ(recorder.deltas.size(), 4u); // cycle 0 + the three above
    return recorder;
}

TEST(Checkpoint, SnapshotMutateRestoreRoundTrip)
{
    const GpuConfig cfg = test::smallCudaConfig();
    const WorkloadInstance inst = buildFor(cfg, "reduction");

    Gpu gpu(cfg);
    const RunResult golden =
        gpu.run(inst.program, inst.launch, inst.image);
    ASSERT_TRUE(golden.clean());
    const CheckpointRecorder recorder = recordCheckpoints(gpu, inst, golden);
    const GpuCheckpoint& cp = recorder.baseline;
    EXPECT_GT(cp.nextBlock, 0u); // taken after the initial dispatch

    gpu.restore(cp);
    const std::uint64_t h0 = gpu.deviceStateHash();

    // snapshot() of the restored device must round-trip bit-for-bit.
    const GpuCheckpoint again = gpu.snapshot();
    gpu.restore(again);
    EXPECT_EQ(gpu.deviceStateHash(), h0);

    // Mutate device state (one VRF bit flip) -> the fingerprint moves...
    GpuCheckpoint flipped = cp;
    flipped.sms.front().vrf.flipBitAt(7);
    gpu.restore(flipped);
    const std::uint64_t h1 = gpu.deviceStateHash();
    EXPECT_NE(h1, h0);

    // ...and restoring the original snapshot brings it back exactly.
    gpu.restore(cp);
    EXPECT_EQ(gpu.deviceStateHash(), h0);
}

TEST(Checkpoint, PackShapeAndAdoption)
{
    const GpuConfig cfg = test::smallCudaConfig();
    const WorkloadInstance inst = buildFor(cfg, "vectoradd");

    FaultInjector injector(cfg, inst);
    const auto pack = injector.buildCheckpointPack(4);
    ASSERT_TRUE(pack);
    EXPECT_EQ(pack->goldenCycles, injector.goldenCycles());
    EXPECT_TRUE(pack->windows.enabled());
    EXPECT_GT(pack->windows.intervalCount(), 0u);

    // Delta encoding: one full baseline, then ascending deltas starting
    // with the trivial cycle-0 one, at most the budget past it.
    ASSERT_FALSE(pack->deltas.empty());
    EXPECT_EQ(pack->deltas.front().now, 0u);
    EXPECT_LE(pack->deltas.size(), 4u + 1u);
    for (std::size_t i = 1; i < pack->deltas.size(); ++i) {
        EXPECT_GT(pack->deltas[i].now, pack->deltas[i - 1].now);
        EXPECT_LT(pack->deltas[i].now, pack->goldenCycles);
    }

    // The whole point of the delta encoding: resident bytes well under
    // what the same checkpoint cycles would cost as full snapshots.
    EXPECT_GT(pack->approxBytes(), 0u);
    if (pack->deltas.size() > 1) {
        EXPECT_LT(pack->approxBytes(), pack->fullEquivalentBytes());
    }

    // Sibling injector of the same cell adopts the shared pack.
    FaultInjector sibling(cfg, inst);
    sibling.adoptGoldenCycles(pack->goldenCycles);
    sibling.adoptCheckpointPack(pack);
    EXPECT_EQ(sibling.checkpointPack().get(), pack.get());
}

/**
 * Every recorded delta checkpoint reproduces the uninterrupted golden
 * run: resumed to the end it gives the same trap, cycles, warp
 * instructions and final image.  Swept over a
 * chip with L1/L2 caches (small Fermi) and one with the scalar
 * register file (small Tahiti).  The deltas resume in descending order
 * on one anchored device, and the cycle-0 delta resumes again after
 * each of two faulted resumes, so each restore reverts the previous
 * run's pages (and stuck-at overlay) through the anchor rather than
 * starting from a fresh copy.
 */
TEST(Checkpoint, DeltaResumeReproducesGolden)
{
    const GpuConfig configs[] = {test::smallCudaConfig(),
                                 test::smallSiConfig()};
    for (const GpuConfig& cfg : configs) {
        for (const char* wname : {"reduction", "scan"}) {
            SCOPED_TRACE(std::string(wname) + " on " + cfg.name);
            const WorkloadInstance inst = buildFor(cfg, wname);

            Gpu gpu(cfg);
            const RunResult golden =
                gpu.run(inst.program, inst.launch, inst.image);
            ASSERT_TRUE(golden.clean());
            const CheckpointRecorder rec = recordCheckpoints(gpu, inst, golden);
            ASSERT_EQ(rec.deltas.size(), 4u);
            EXPECT_EQ(rec.deltas.front().now, 0u);

            gpu.anchorTo(rec.baseline);
            MemoryImage scratch = rec.baseline.memory;
            scratch.markCleanForRestore();
            auto resume = [&](const GpuCheckpointDelta& d,
                              std::optional<FaultSpec> fault) {
                RunOptions options;
                options.resumeDelta = &d;
                options.imageInOut = &scratch;
                options.fault = fault;
                options.maxCycles = 4 * golden.stats.cycles;
                return gpu.run(inst.program, inst.launch, MemoryImage{},
                               options);
            };
            auto expect_golden = [&](std::size_t i) {
                const RunResult r = resume(rec.deltas[i], std::nullopt);
                EXPECT_EQ(r.trap, golden.trap) << "delta " << i;
                EXPECT_EQ(r.stats.cycles, golden.stats.cycles)
                    << "delta " << i;
                EXPECT_EQ(r.stats.warpInstructions,
                          golden.stats.warpInstructions)
                    << "delta " << i;
                EXPECT_EQ(scratch.words(), golden.memory.words())
                    << "delta " << i;
            };

            for (std::size_t i = rec.deltas.size(); i-- > 0;)
                expect_golden(i);

            // Faulted resumes from the first mid-run checkpoint: a
            // stuck-at-1 register bit (a read overlay plus corrupted
            // values), then a flip in the last register-file bit, dead
            // state the run never rewrites.  The cycle-0 delta carries
            // no pages, so the resume after each must revert every
            // page the faulted run dirtied.
            FaultSpec stuck;
            stuck.structure = TargetStructure::VectorRegisterFile;
            stuck.bitIndex = 32 * 3 + 5;
            stuck.cycle = rec.deltas[1].now;
            stuck.behavior = FaultBehavior::StuckAt1;
            FaultSpec dead = stuck;
            dead.structure = cfg.scalarRegWordsPerSm > 0
                                 ? TargetStructure::ScalarRegisterFile
                                 : TargetStructure::VectorRegisterFile;
            dead.bitIndex = gpu.structureBits(dead.structure) - 1;
            dead.behavior = FaultBehavior::Transient;
            for (const FaultSpec& fault : {stuck, dead}) {
                resume(rec.deltas[1], fault);
                expect_golden(0);
            }
        }
    }
}

/**
 * The tentpole guarantee: for every injection, the checkpointed engine
 * classifies exactly like the from-scratch engine.  Swept across all
 * three structures, several workloads, and both dialects (CUDA via the
 * small Fermi config, Southern Islands via the small Tahiti config,
 * which is also the only scalar-register-file chip).
 */
TEST(Checkpoint, DifferentialOutcomeEquality)
{
    constexpr std::size_t kInjections = 25;
    const GpuConfig configs[] = {test::smallCudaConfig(),
                                 test::smallSiConfig()};
    const char* workloads[] = {"vectoradd", "reduction", "histogram"};

    std::size_t converged_total = 0;
    for (const GpuConfig& cfg : configs) {
        for (const char* wname : workloads) {
            const WorkloadInstance inst = buildFor(cfg, wname);

            std::vector<TargetStructure> structures;
            structures.push_back(TargetStructure::VectorRegisterFile);
            if (makeWorkload(wname)->usesLocalMemory())
                structures.push_back(TargetStructure::SharedMemory);
            if (cfg.scalarRegWordsPerSm > 0)
                structures.push_back(TargetStructure::ScalarRegisterFile);

            FaultInjector legacy(cfg, inst);
            FaultInjector ckpt(cfg, inst);
            ckpt.adoptGoldenCycles(legacy.goldenCycles());
            ckpt.buildCheckpointPack(4);

            for (TargetStructure s : structures) {
                for (std::size_t i = 0; i < kInjections; ++i) {
                    const std::uint64_t seed = deriveSeed(
                        0xD1FF, static_cast<std::uint64_t>(s) * 1000 + i);
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
                    EXPECT_FALSE(a.converged()); // legacy never shortcuts
                    if (b.converged()) {
                        ++converged_total;
                        EXPECT_EQ(b.outcome, FaultOutcome::Masked);
                    }
                }
            }
        }
    }
    // The engine must actually shortcut a healthy share of the masked
    // population (deterministic given the fixed seeds).
    EXPECT_GT(converged_total, 0u);
}

/**
 * Delta restore under every fault behavior: the checkpointed engine's
 * outcome equals the legacy from-scratch engine's for each registry
 * structure x {transient, stuck-at-0, stuck-at-1, intermittent}.
 * Persistent behaviors exercise the restore path hardest — every
 * injection the residency prefilter leaves delta-restores and replays
 * to completion — so any page the revert missed would flip an outcome
 * here.
 */
TEST(Checkpoint, DeltaRestoreAgreesAcrossBehaviors)
{
    constexpr std::size_t kInjections = 6;
    const FaultBehavior behaviors[] = {
        FaultBehavior::Transient, FaultBehavior::StuckAt0,
        FaultBehavior::StuckAt1, FaultBehavior::Intermittent};

    const GpuConfig cfg = test::smallCudaConfig();
    const char* wname = "reduction";
    const WorkloadInstance inst = buildFor(cfg, wname);
    const std::vector<TargetStructure> structures = selectStructures(
        cfg, makeWorkload(wname)->usesLocalMemory(), {});
    ASSERT_FALSE(structures.empty());

    FaultInjector legacy(cfg, inst);
    FaultInjector ckpt(cfg, inst);
    ckpt.adoptGoldenCycles(legacy.goldenCycles());
    ckpt.buildCheckpointPack(4);

    for (TargetStructure s : structures) {
        for (FaultBehavior behavior : behaviors) {
            const FaultShape shape{behavior, FaultPattern::SingleBit};
            const std::uint64_t seed =
                deriveSeed(0xBEEF, static_cast<std::uint64_t>(s) * 16 +
                                       static_cast<std::uint64_t>(behavior));
            for (std::size_t i = 0; i < kInjections; ++i) {
                const InjectionResult a =
                    runIndexedInjection(legacy, s, seed, i, shape);
                const InjectionResult b =
                    runIndexedInjection(ckpt, s, seed, i, shape);
                EXPECT_EQ(a.fault.bitIndex, b.fault.bitIndex);
                EXPECT_EQ(a.fault.cycle, b.fault.cycle);
                EXPECT_EQ(a.outcome, b.outcome)
                    << targetStructureName(s) << " "
                    << faultBehaviorName(behavior) << " bit "
                    << a.fault.bitIndex << " cycle " << a.fault.cycle;
                EXPECT_EQ(a.trap, b.trap);
            }
        }
    }
}

/**
 * Pinned even placement: the delta checkpoint cycles of a 16-checkpoint
 * pack on two full-size cells are golden*i/17, so a placement or
 * recording change that moves a checkpoint shows here.
 */
TEST(Checkpoint, EvenPlacementPinned)
{
    const struct
    {
        GpuModel gpu;
        const char* workload;
        std::vector<Cycle> cycles;
    } kCells[] = {
        {GpuModel::HdRadeon7970,
         "histogram",
         {0, 147, 294, 442, 589, 737, 884, 1031, 1179, 1326, 1474, 1621,
          1768, 1916, 2063, 2211, 2358}},
        {GpuModel::GeforceGtx480,
         "dwtHaar1D",
         {0, 96, 193, 290, 387, 484, 580, 677, 774, 871, 968, 1065, 1161,
          1258, 1355, 1452, 1549}},
    };
    for (const auto& cell : kCells) {
        const GpuConfig& cfg = gpuConfig(cell.gpu);
        const WorkloadInstance inst = buildFor(cfg, cell.workload);
        FaultInjector injector(cfg, inst);
        const auto pack = injector.buildCheckpointPack(16);
        std::vector<Cycle> cycles;
        for (const GpuCheckpointDelta& d : pack->deltas)
            cycles.push_back(d.now);
        EXPECT_EQ(cycles, cell.cycles)
            << gpuShortName(cell.gpu) << "/" << cell.workload;
    }
}

/**
 * The budget is clamped, never trusted: on a run longer than the
 * ceiling, the largest `unsigned` places exactly kMaxCheckpoints
 * checkpoints (no endless loop, no n + 1 that wraps to 0), strictly
 * ascending inside the run, and a zero budget records only the cycle-0
 * delta.
 */
TEST(Checkpoint, BudgetIsClamped)
{
    const GpuConfig cfg = test::smallCudaConfig();
    const WorkloadInstance inst = buildFor(cfg, "vectoradd");
    FaultInjector injector(cfg, inst);

    const auto pack =
        injector.buildCheckpointPack(std::numeric_limits<unsigned>::max());
    ASSERT_GT(pack->goldenCycles, kMaxCheckpoints + 1u);
    EXPECT_EQ(pack->deltas.size(), std::size_t{kMaxCheckpoints} + 1);
    EXPECT_EQ(pack->deltas.front().now, 0u);
    for (std::size_t i = 1; i < pack->deltas.size(); ++i) {
        EXPECT_GT(pack->deltas[i].now, pack->deltas[i - 1].now);
        EXPECT_LT(pack->deltas[i].now, pack->goldenCycles);
    }

    const auto none = injector.buildCheckpointPack(0);
    ASSERT_EQ(none->deltas.size(), 1u);
    EXPECT_EQ(none->deltas.front().now, 0u);
}

/**
 * A FaultWindowRecorder of every structure that also notes, per
 * chip-global word of each, the cycles of the events it saw.  A
 * window opens at cycle 0 or just after a write and closes at a read,
 * so observed() can change only at an event cycle c or at c + 1.
 */
class EventCycleLog : public FaultWindowRecorder
{
  public:
    explicit EventCycleLog(const GpuConfig& config)
        : FaultWindowRecorder(config, registeredStructures()),
          config_(config)
    {
    }

    void
    onRead(TargetStructure structure, SmId sm, std::uint32_t word,
           Word value, Cycle cycle) override
    {
        FaultWindowRecorder::onRead(structure, sm, word, value, cycle);
        note(structure, sm, word, cycle);
    }

    void
    onWrite(TargetStructure structure, SmId sm, std::uint32_t word,
            Cycle cycle) override
    {
        FaultWindowRecorder::onWrite(structure, sm, word, cycle);
        note(structure, sm, word, cycle);
    }

    void
    onAlloc(TargetStructure structure, SmId sm, std::uint32_t first,
            std::uint32_t count, Cycle cycle) override
    {
        FaultWindowRecorder::onAlloc(structure, sm, first, count, cycle);
        for (std::uint32_t w = first; w < first + count; ++w)
            note(structure, sm, w, cycle);
    }

    /** Event cycles by (structure, chip-global word). */
    std::map<std::pair<TargetStructure, std::uint64_t>, std::vector<Cycle>>
        cycles;

  private:
    void
    note(TargetStructure structure, SmId sm, std::uint32_t word, Cycle c)
    {
        cycles[{structure,
                sm * structureSpec(structure).aceUnitsPerSm(config_) + word}]
            .push_back(c);
    }

    const GpuConfig& config_;
};

/**
 * Recording checkpoints does not perturb the recording.  A pack's one
 * recording run lands on every checkpoint cycle and encodes a delta
 * there; its windows must answer like a FaultWindowRecorder's on a
 * plain run.  observed() is compared at every
 * event cycle c and c + 1 of each word (the plain windows are constant
 * in between) and at every checkpoint cycle, 0 included, of every word;
 * stuckAgreeCycle() for every bit and forced value of every word of the
 * read-overlay rows (no other row records residency: see
 * FaultWindows.CacheRowsRecordNoResidency).
 */
TEST(Checkpoint, RecordingCheckpointsDoesNotPerturbTheRecording)
{
    const GpuConfig configs[] = {test::smallCudaConfig(),
                                 test::smallSiConfig()};
    for (const GpuConfig& cfg : configs) {
        SCOPED_TRACE(cfg.name);
        const WorkloadInstance inst = buildFor(cfg, "reduction");
        Gpu gpu(cfg);
        EventCycleLog log(cfg);
        RunOptions plain;
        plain.observer = &log;
        const RunResult golden =
            gpu.run(inst.program, inst.launch, inst.image, plain);
        ASSERT_TRUE(golden.clean());
        FaultWindows windows;
        log.finalize(windows);

        FaultInjector injector(cfg, inst);
        injector.adoptGoldenCycles(golden.stats.cycles);
        const auto pack = injector.buildCheckpointPack(kDefaultCheckpoints);
        ASSERT_EQ(pack->deltas.size(), kDefaultCheckpoints + 1u);

        // Count mismatches and report the first: a gtest assertion per
        // query would dominate the run time.
        std::size_t mismatches = 0;
        std::string first;
        const auto compare_observed = [&](TargetStructure structure,
                                          std::uint64_t word, Cycle c) {
            if (pack->windows.observed(structure, word, c) !=
                    windows.observed(structure, word, c) &&
                mismatches++ == 0) {
                first = "observed() of " +
                        std::string(targetStructureName(structure)) +
                        " word " + std::to_string(word) + " at cycle " +
                        std::to_string(c);
            }
        };
        EXPECT_EQ(pack->windows.intervalCount(), windows.intervalCount());
        for (const auto& [key, event_cycles] : log.cycles) {
            for (Cycle e : event_cycles) {
                compare_observed(key.first, key.second, e);
                compare_observed(key.first, key.second, e + 1);
            }
        }
        for (const StructureSpec& spec : structureRegistry()) {
            const std::uint64_t words =
                structureAceUnitsTotal(cfg, spec.id);
            const bool residency = spec.persistenceHook ==
                                   PersistenceHook::StorageReadOverlay;
            for (std::uint64_t word = 0; word < words; ++word) {
                for (const GpuCheckpointDelta& d : pack->deltas)
                    compare_observed(spec.id, word, d.now);
                for (unsigned bit = 0; residency && bit < 32; ++bit) {
                    for (bool value : {false, true}) {
                        if (pack->windows.stuckAgreeCycle(spec.id, word, bit,
                                                          1, value) !=
                                windows.stuckAgreeCycle(spec.id, word, bit,
                                                        1, value) &&
                            mismatches++ == 0) {
                            first = "stuckAgreeCycle() of " +
                                    std::string(targetStructureName(spec.id)) +
                                    " word " + std::to_string(word) +
                                    " bit " + std::to_string(bit);
                        }
                    }
                }
            }
        }
        EXPECT_EQ(mismatches, 0u) << "first: " << first;
    }
}

/** The campaign path: checkpoints on vs off is count-for-count equal. */
TEST(Checkpoint, CampaignCountsInvariantUnderEngine)
{
    const GpuConfig cfg = test::smallCudaConfig();
    const WorkloadInstance inst = buildFor(cfg, "reduction");

    CampaignConfig legacy;
    legacy.plan.injections = 80;
    legacy.numThreads = 2;
    legacy.checkpoints = 0;

    CampaignConfig ckpt = legacy;
    ckpt.checkpoints = 6;

    for (TargetStructure s : {TargetStructure::SharedMemory,
                              TargetStructure::VectorRegisterFile}) {
        const CampaignResult a = runCampaign(cfg, inst, s, legacy);
        const CampaignResult b = runCampaign(cfg, inst, s, ckpt);
        EXPECT_EQ(a.masked, b.masked) << targetStructureName(s);
        EXPECT_EQ(a.sdc, b.sdc) << targetStructureName(s);
        EXPECT_EQ(a.due, b.due) << targetStructureName(s);
    }
}

/**
 * Regression: this exact fault (scan on the full-size FX 5600, LDS bit
 * 1325566 flipped at cycle 2619) is an SDC that a since-removed
 * trajectory-hash early-out once called Masked: the flip is read into a
 * register, leaving two single-bit differences at bit 30 of
 * odd-position words, which the original triangular XOR-multiply hash
 * cancelled (the rotate in StateHash::round exists because of it).
 * Every engine must keep classifying it SDC, with no shortcut.
 */
TEST(Checkpoint, HashIsNotTriangularRegression)
{
    const GpuConfig& cfg = gpuConfig(GpuModel::QuadroFx5600);
    const WorkloadInstance inst = buildFor(cfg, "scan");

    FaultSpec fault;
    fault.structure = TargetStructure::SharedMemory;
    fault.bitIndex = 1325566;
    fault.cycle = 2619;

    FaultInjector legacy(cfg, inst);
    const InjectionResult a = legacy.inject(fault);
    ASSERT_EQ(a.outcome, FaultOutcome::Sdc);

    FaultInjector ckpt(cfg, inst);
    ckpt.adoptGoldenCycles(legacy.goldenCycles());
    ckpt.buildCheckpointPack(8);
    const InjectionResult b = ckpt.inject(fault);
    EXPECT_EQ(b.outcome, FaultOutcome::Sdc);
    EXPECT_FALSE(b.converged());
}

/** Dead-window prefilter edge: a fault in never-touched space is
 *  masked without simulation, and inject() agrees with a from-scratch
 *  run of the very same fault. */
TEST(Checkpoint, PrefilterAgreesOnUntouchedStorage)
{
    const GpuConfig cfg = test::smallCudaConfig();
    const WorkloadInstance inst = buildFor(cfg, "vectoradd");

    FaultInjector legacy(cfg, inst);
    FaultInjector ckpt(cfg, inst);
    ckpt.adoptGoldenCycles(legacy.goldenCycles());
    ckpt.buildCheckpointPack(2);

    FaultSpec fault;
    fault.structure = TargetStructure::SharedMemory; // kernel uses none
    fault.bitIndex = 1234;
    fault.cycle = legacy.goldenCycles() / 2;

    const InjectionResult a = legacy.inject(fault);
    const InjectionResult b = ckpt.inject(fault);
    EXPECT_EQ(a.outcome, FaultOutcome::Masked);
    EXPECT_EQ(b.outcome, FaultOutcome::Masked);
    EXPECT_TRUE(b.converged());
}

} // namespace
} // namespace gpr
