/**
 * @file
 * Single-fault injection runs and outcome classification — the per-run
 * engine underneath statistical campaigns (the GUFI/SIFI injection core).
 */

#ifndef GPR_RELIABILITY_FAULT_INJECTOR_HH
#define GPR_RELIABILITY_FAULT_INJECTOR_HH

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/random.hh"
#include "reliability/fault_windows.hh"
#include "sim/gpu.hh"
#include "workloads/workload.hh"

namespace gpr {

/** Classification of a single injection. */
enum class FaultOutcome : std::uint8_t
{
    Masked, ///< output equals golden under the workload's comparison rule
    Sdc,    ///< silent data corruption: clean exit, wrong output
    Due,    ///< detected unrecoverable error: trap / hang / deadlock
};

constexpr std::string_view
faultOutcomeName(FaultOutcome o)
{
    switch (o) {
      case FaultOutcome::Masked:
        return "masked";
      case FaultOutcome::Sdc:
        return "SDC";
      case FaultOutcome::Due:
        return "DUE";
    }
    return "unknown";
}

/** How the checkpoint engine classified an injection Masked without
 *  simulating it.  Engine metadata only: the outcome is identical to a
 *  full from-scratch simulation either way. */
enum class InjectionShortcut : std::uint8_t
{
    None,       ///< simulated to trap/completion (or legacy engine)
    DeadWindow, ///< outside every observability window: no simulation
    /** Persistent prefilter: every golden read of the stuck word at or
     *  after the fault cycle already observes the forced value, so the
     *  forcing never changes a value entering computation — exactly
     *  Masked with zero simulation (see FaultWindows::stuckAgreeCycle). */
    ValueResidency,
};

/** Result of one injection. */
struct InjectionResult
{
    FaultSpec fault;
    FaultOutcome outcome = FaultOutcome::Masked;
    TrapKind trap = TrapKind::None;
    InjectionShortcut shortcut = InjectionShortcut::None;

    /** Classified Masked without simulation. */
    bool
    converged() const
    {
        return shortcut != InjectionShortcut::None;
    }
};

/**
 * One golden run's checkpoint pack (delta-encoded): a single full
 * baseline at cycle 0 plus per-checkpoint dirty page sets against it,
 * and the exact fault windows its injections query.  Built once per
 * (workload, GPU, workloadSeed) cell and shared (read-only) by every
 * injector of that cell.  An injection consults the windows first (a
 * transient fault outside every observability window, or a persistent
 * one whose forced value every remaining read already observes, is
 * exactly Masked with zero simulation), then delta-restores the nearest
 * checkpoint at or before its fault cycle and simulates to the end of
 * the run.
 */
struct CheckpointPack
{
    Cycle goldenCycles = 0;
    /** The full cycle-0 state every delta is encoded against. */
    GpuCheckpoint baseline;
    /** Delta checkpoints ascending by .now, starting with the trivial
     *  cycle-0 one (so every fault cycle has a checkpoint below it). */
    std::vector<GpuCheckpointDelta> deltas;
    /** The golden run's exact observability windows and value
     *  residency, as far as the pack's injections query them. */
    FaultWindows windows;

    /** Resident bytes of the pack: baseline, deltas and windows. */
    std::size_t
    approxBytes() const
    {
        std::size_t b = baseline.bytes() + windows.bytes();
        for (const GpuCheckpointDelta& d : deltas)
            b += d.bytes();
        return b;
    }

    /** What the same pack would cost with full snapshots: one
     *  baseline-sized copy per non-trivial checkpoint, plus the same
     *  windows.  The approxBytes()/fullEquivalentBytes() ratio is the
     *  pack's delta-vs-full compression factor. */
    std::size_t
    fullEquivalentBytes() const
    {
        std::size_t n = 0;
        for (const GpuCheckpointDelta& d : deltas)
            n += d.now > 0 ? 1 : 0;
        return baseline.bytes() * std::max<std::size_t>(n, 1) +
               windows.bytes();
    }
};

/** Wall-clock breakdown of where injection time goes, accumulated per
 *  injector across inject() calls (the bench's per-phase table). */
struct InjectionPhaseStats
{
    std::uint64_t injections = 0;
    /** Zero-simulation classifications: transient dead-window hits and
     *  persistent value-residency hits (split for the bench's
     *  per-behavior hit-rate table). */
    std::uint64_t deadWindowHits = 0;
    std::uint64_t residencyHits = 0;
    /** Always 0: kept only because bench/e2e/study_bench.cc reads it. */
    std::uint64_t hashConvergeHits = 0;
    double prefilterSeconds = 0.0; ///< dead-window + residency queries
    double restoreSeconds = 0.0;   ///< checkpoint restore (full or delta)
    /** Always 0: kept only because bench/e2e/study_bench.cc reads it. */
    double hashSeconds = 0.0;
    double replaySeconds = 0.0;    ///< simulation proper (run - restore)

    void
    operator+=(const InjectionPhaseStats& o)
    {
        injections += o.injections;
        deadWindowHits += o.deadWindowHits;
        residencyHits += o.residencyHits;
        prefilterSeconds += o.prefilterSeconds;
        restoreSeconds += o.restoreSeconds;
        replaySeconds += o.replaySeconds;
    }
};

/**
 * Runs golden + injected executions of one workload instance on one GPU.
 * Reusable across many injections (keeps its simulator instance warm);
 * each worker thread of a campaign owns one FaultInjector.
 */
class FaultInjector
{
  public:
    /**
     * @p config must outlive the injector; @p instance is the built
     * workload (shared, read-only).
     */
    FaultInjector(const GpuConfig& config,
                  const WorkloadInstance& instance);

    /**
     * Run the fault-free reference execution.  Throws FatalError if the
     * workload does not verify fault-free (a workload bug, not a DUE).
     */
    const RunResult& goldenRun();

    /** Golden cycle count (runs the golden execution if needed). */
    Cycle goldenCycles();

    /**
     * Adopt the golden cycle count of a previously *validated* fault-free
     * run of the same instance (e.g. the cell's ACE-instrumented pass),
     * so this injector skips its own reference simulation.  Injection
     * outcomes only consume the golden run through its cycle count — the
     * output comparison is against the instance's host-computed goldens —
     * so adopted and self-run injectors classify identically.  After
     * adoption goldenRun() is unavailable (there is no full RunResult to
     * return); goldenCycles() and inject*() keep working.
     */
    void adoptGoldenCycles(Cycle cycles);

    /**
     * Record a checkpoint pack in one golden pass and arm this injector
     * with it.  The pass records the cycle-0 baseline, a delta
     * checkpoint at each of n = min(@p checkpoints, kMaxCheckpoints,
     * golden - 1) evenly spaced cycles golden*i/(n+1), i = 1..n, and the
     * fault windows, so it needs only the golden cycle count (runs or
     * adopts it first).  Returns the pack so sibling injectors of the
     * same cell can adopt it instead of re-recording.
     * @p checkpoints == 0 yields a baseline-only pack (anchored restarts
     * from cycle 0, no mid-run skipping).  The windows hold only what
     * the pack's injections will query: for @p structures, the ones they
     * target, the observability windows if one of their @p behaviors is
     * transient and the value residency if one is persistent.  A fault
     * outside that gets no prefilter, so a list that is too short costs
     * speed, never a verdict.
     */
    std::shared_ptr<const CheckpointPack> buildCheckpointPack(
        unsigned checkpoints,
        const std::vector<TargetStructure>& structures =
            registeredStructures(),
        const std::vector<FaultBehavior>& behaviors = allFaultBehaviors());

    /**
     * Share a pack recorded by another injector of the same
     * (config, instance, workloadSeed) cell.
     */
    void adoptCheckpointPack(std::shared_ptr<const CheckpointPack> pack);

    /** The armed pack, if any. */
    const std::shared_ptr<const CheckpointPack>&
    checkpointPack() const
    {
        return pack_;
    }

    /**
     * Inject @p fault and classify the outcome.  With a checkpoint pack
     * armed, the run restores the nearest checkpoint <= fault.cycle and
     * simulates to the end, so the classification (trap, then
     * verifyOutputs) is identical to the from-scratch path's.  Two
     * prefilters classify Masked with zero simulation instead.  A
     * transient flip outside every window of its unit: a word of word
     * storage, a predicate register, the SIMT PC/mask unit or a stack
     * entry, or a cache data word.  And a persistent (stuck-at /
     * intermittent) fault in word storage whose forced value agrees
     * with every remaining golden read (value residency).  Cache
     * metadata bits, groups spanning two such units and persistent
     * cache and control faults keep the restore but get no prefilter.
     */
    InjectionResult inject(const FaultSpec& fault);

    /**
     * Sample the fault injectRandom() would inject, without running it:
     * a uniformly random (bit, cycle) in @p structure stamped with
     * @p shape.  The draw order (bit, then cycle, then any
     * shape-specific parameters) is pinned: default-shape sampling is
     * bit-identical to the original single-flip model, and intermittent
     * duty-cycle parameters are derived from the same per-injection
     * stream deterministically.  Callers that need the fault before
     * running it (the study benchmark's traced re-execution) sample
     * here and pass the result to inject().
     */
    FaultSpec sampleRandom(TargetStructure structure, Rng& rng,
                           const FaultShape& shape = {});

    /** inject(sampleRandom(structure, rng, shape)). */
    InjectionResult injectRandom(TargetStructure structure, Rng& rng,
                                 const FaultShape& shape = {});

    /** Index of the armed pack's delta checkpoint that serves a fault
     *  at @p cycle: the last one at or before it (0 without a pack —
     *  everything replays from cycle 0).  inject() resumes from it. */
    std::size_t checkpointIndexFor(Cycle cycle) const;

    /** The device (for structure sizes). */
    const Gpu& gpu() const { return gpu_; }

    /** Accumulated per-phase wall-clock of all inject() calls. */
    const InjectionPhaseStats& phaseStats() const { return phase_stats_; }
    void resetPhaseStats() { phase_stats_ = InjectionPhaseStats{}; }

  private:
    /** Anchor the device and the scratch image to the armed pack's
     *  baseline (no-op when already anchored to it). */
    void ensureAnchored();

    const GpuConfig& config_;
    const WorkloadInstance& instance_;
    Gpu gpu_;
    RunResult golden_;
    bool have_golden_ = false;
    bool golden_adopted_ = false;
    std::shared_ptr<const CheckpointPack> pack_;
    /** Injector-owned run image for delta resumes: reverted + patched
     *  in place each injection instead of copied. */
    MemoryImage scratch_;
    /** Pack scratch_/gpu_ are currently anchored to (see anchorTo). */
    const CheckpointPack* anchored_pack_ = nullptr;
    InjectionPhaseStats phase_stats_;
};

/** Default checkpoint budget per golden run (the `--checkpoints` CLI
 *  default); 0 selects the legacy from-scratch engine.  Delta encoding
 *  makes a checkpoint cost a fraction of a full snapshot, so the
 *  default is twice the full-snapshot era's 8: the extra checkpoints
 *  buy shorter fast-forward replay for a sub-linear memory increase. */
constexpr unsigned kDefaultCheckpoints = 16;

/** The most checkpoints one pack holds; a larger budget is clamped to
 *  it, so pack memory stays bounded whatever `--checkpoints` asks for.
 *  511 keeps the ceiling of the earlier fault-aware placer (512
 *  histogram buckets), so no budget places more checkpoints than it
 *  did there. */
constexpr unsigned kMaxCheckpoints = 511;

} // namespace gpr

#endif // GPR_RELIABILITY_FAULT_INJECTOR_HH
