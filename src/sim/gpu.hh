/**
 * @file
 * The whole-device simulator: block dispatcher, cycle loop, fault
 * application, occupancy integration and watchdog.
 *
 * A Gpu is constructed once per worker thread and reused across runs
 * (run() fully resets architectural state), which keeps fault-injection
 * campaigns cheap.  Runs are bit-deterministic: same (program, launch,
 * image, options) in, same result out, regardless of what ran before.
 */

#ifndef GPR_SIM_GPU_HH
#define GPR_SIM_GPU_HH

#include <memory>
#include <optional>
#include <vector>

#include "arch/gpu_config.hh"
#include "sim/fault_model.hh"
#include "sim/launch.hh"
#include "sim/memory_image.hh"
#include "sim/observer.hh"
#include "sim/sm_core.hh"
#include "sim/stats.hh"
#include "sim/trap.hh"

namespace gpr {

/**
 * The cycle-0 baseline every delta checkpoint is encoded against: the
 * device portion (SMs + L2 + dispatch) captured by Gpu::snapshot(),
 * plus the memory image.  The run-loop state a resume needs (cycle,
 * MemPipe, stats, occupancy integrators) lives in each
 * GpuCheckpointDelta, the cycle-0 one included.
 */
struct GpuCheckpoint
{
    std::vector<SmCore::Snapshot> sms;
    std::optional<CacheModel> l2; ///< chip-shared L2, when modeled
    std::uint32_t nextBlock = 0;
    std::uint32_t dispatchRr = 0;
    MemoryImage memory;

    /** Resident footprint (pack accounting). */
    std::size_t
    bytes() const
    {
        std::size_t b = sizeof(*this) + memory.bytes() +
                        (l2 ? l2->bytes() : 0);
        for (const SmCore::Snapshot& s : sms)
            b += s.bytes();
        return b;
    }
};

/**
 * Complete mid-run device + run-loop state at the start of one cycle,
 * encoded against a baseline GpuCheckpoint: the storages and the memory
 * image are stored as the pages that differ from the baseline, while
 * the (small) control state is copied whole.  Restoring = revert the
 * anchored device/image to the baseline (touching only pages written
 * since) + apply these deltas; resuming then reproduces the recorded
 * run's remaining trajectory bit-for-bit, with one caveat: the
 * occupancy *averages* of a resumed run can differ from an
 * uninterrupted run in the last ulp (the integrators accumulate over
 * differently split intervals) — classification never reads them.
 */
struct GpuCheckpointDelta
{
    Cycle now = 0;

    // Device state.
    std::vector<SmStorageDelta> smStorage;
    std::vector<SmCore::ControlState> smControl;
    StorageDelta l2; ///< L2 pages differing from the baseline's
    std::uint32_t nextBlock = 0;
    std::uint32_t dispatchRr = 0;

    // Run-loop state.
    MemPipe memPipe;
    SimStats stats;
    StorageDelta memory; ///< image pages differing from the baseline's
    double vrfOccAcc = 0.0;
    double srfOccAcc = 0.0;
    double ldsOccAcc = 0.0;
    double warpOccAcc = 0.0;
    std::uint64_t lastCompleted = 0;

    /** Resident footprint (pack accounting). */
    std::size_t
    bytes() const
    {
        std::size_t b = sizeof(*this) + memory.bytes() + l2.bytes();
        for (const SmStorageDelta& s : smStorage)
            b += s.bytes();
        for (const SmCore::ControlState& c : smControl)
            b += c.bytes();
        return b;
    }
};

/**
 * Output channel for a golden checkpoint-recording pass: Gpu::run
 * captures the cycle-0 baseline (after initial dispatch), then encodes
 * a delta against it at cycle 0 and at each requested cycle.
 */
struct CheckpointRecorder
{
    /** Cycles to checkpoint at, ascending and > 0 (input). */
    std::vector<Cycle> checkpointCycles;
    /** Cycle-0 baseline every delta is encoded against (output). */
    GpuCheckpoint baseline;
    /** Delta checkpoints: cycle 0, then each reached requested cycle
     *  (output). */
    std::vector<GpuCheckpointDelta> deltas;
};

struct RunOptions
{
    /** Hard cycle budget; 0 selects the default cap (50M cycles). */
    Cycle maxCycles = 0;
    /** Optional fault to inject during the run (behavior × pattern ×
     *  target; see sim/fault_model.hh). */
    std::optional<FaultSpec> fault;
    /** Optional access-trace observer (ACE analysis). */
    SimObserver* observer = nullptr;

    /**
     * Delta resume: start mid-execution from this checkpoint, applied
     * on top of the baseline the device is anchored to (Gpu::anchorTo).
     * imageInOut must point to a scratch image whose dirty tracking is
     * likewise anchored to that baseline's image — then the restore
     * touches only pages the previous run wrote, instead of copying the
     * whole state.  Incompatible with observer/recorder.
     */
    const GpuCheckpointDelta* resumeDelta = nullptr;

    /**
     * Run against this caller-owned image instead of the copied-in one
     * (the passed-in MemoryImage parameter is ignored, and the result's
     * `memory` field is left empty — read the scratch image instead).
     * Requires resumeDelta: the whole point is reusing one scratch
     * image across a campaign's injections without per-run copies.
     */
    MemoryImage* imageInOut = nullptr;
    /** Record the baseline and the delta checkpoints along this
     *  (fault-free) run. */
    CheckpointRecorder* recorder = nullptr;
};

struct RunResult
{
    TrapKind trap = TrapKind::None;
    SimStats stats;
    MemoryImage memory;

    /** Wall-clock seconds the run spent restoring its delta checkpoint
     *  — the injection-throughput bench's per-phase breakdown. */
    double restoreSeconds = 0.0;

    bool clean() const { return trap == TrapKind::None; }
};

class Gpu
{
  public:
    explicit Gpu(const GpuConfig& config);

    Gpu(const Gpu&) = delete;
    Gpu& operator=(const Gpu&) = delete;

    const GpuConfig& config() const { return config_; }

    /**
     * Execute @p prog over @p launch against a copy-in @p image.
     * Throws FatalError on configuration errors (kernel cannot launch);
     * abnormal *simulation* outcomes are reported via RunResult::trap.
     */
    RunResult run(const Program& prog, const LaunchConfig& launch,
                  MemoryImage image, const RunOptions& options = {});

    /** Total bits of @p structure across the whole chip. */
    std::uint64_t structureBits(TargetStructure structure) const;

    /**
     * Deep-copy the device portion of the state (all SMs, the L2 and
     * dispatch) into a checkpoint; its memory image is left empty (the
     * run loop fills it when recording via CheckpointRecorder).
     */
    GpuCheckpoint snapshot() const;

    /** Restore the device portion captured by snapshot().  Drops any
     *  delta anchor (the dirty tracking no longer matches it). */
    void restore(const GpuCheckpoint& cp);

    /**
     * Anchor the device to @p baseline for delta resumes: fully restore
     * its device portion, then mark every storage clean so subsequent
     * dirty tracking measures divergence from the baseline.  The caller
     * keeps @p baseline alive and unchanged for as long as runs resume
     * against it (one anchoring serves a whole campaign of injections).
     */
    void anchorTo(const GpuCheckpoint& baseline);

    /**
     * Fingerprint of the device portion (SMs, the L2 and dispatch
     * state), recomputed from scratch on each call — the round-trip
     * invariant: restore(cp) always reproduces the same
     * deviceStateHash().
     */
    std::uint64_t deviceStateHash() const;

  private:
    void applyFault(const FaultSpec& fault);
    void restoreDelta(const GpuCheckpointDelta& d, MemoryImage& image);
    void dispatchBlocks(RunContext& ctx, Cycle now);

    const GpuConfig& config_;
    std::vector<std::unique_ptr<SmCore>> sms_;
    std::optional<CacheModel> l2_; ///< absent when l2Bytes == 0

    // Per-run dispatch state.
    std::uint32_t next_block_ = 0;
    std::uint32_t num_blocks_ = 0;
    std::uint32_t dispatch_rr_ = 0;
    /** SM hosting the run's persistent fault, -1 if none (per-run). */
    std::int64_t persistent_sm_ = -1;
    /** Chip-scoped (L2) persistent fault bound to this run; forced via
     *  CacheModel::forceBit each active cycle (per-run state). */
    std::optional<SmCore::PersistentFault> persistent_l2_;
    /** Baseline the device's dirty tracking is anchored to (nullptr =
     *  unanchored); delta resumes revert to it. */
    const GpuCheckpoint* anchor_ = nullptr;
};

} // namespace gpr

#endif // GPR_SIM_GPU_HH
