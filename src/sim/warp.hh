/**
 * @file
 * Per-warp (wavefront) execution state: PC, SIMT divergence stack,
 * predicate file, scoreboard.
 */

#ifndef GPR_SIM_WARP_HH
#define GPR_SIM_WARP_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/hash.hh"
#include "common/types.hh"
#include "isa/instruction.hh"

namespace gpr {

/** Lane-set within a warp; bit i = lane i (warpWidth <= kMaxLanes). */
using LaneMask = std::uint64_t;

/** Lanes a LaneMask holds: the widest warp the simulator models. */
constexpr unsigned kMaxLanes = 64;

constexpr LaneMask
fullMask(unsigned lanes)
{
    return lanes >= 64 ? ~LaneMask{0} : ((LaneMask{1} << lanes) - 1);
}

/**
 * SIMT reconvergence stack entry.  SSY pushes a SyncToken carrying the
 * reconvergence PC and the pre-divergence mask; a divergent branch pushes
 * a PendingPath for the taken lanes.  SYNC pops: a PendingPath resumes
 * the deferred lanes, a SyncToken reconverges.
 */
struct ReconvEntry
{
    enum class Kind : std::uint8_t { SyncToken, PendingPath };
    Kind kind = Kind::SyncToken;
    std::uint32_t pc = 0;   ///< reconvergence PC / pending-path entry PC
    LaneMask mask = 0;
};

/** Scheduling state of a warp. */
enum class WarpStatus : std::uint8_t
{
    Ready,
    AtBarrier,
    Finished,
};

struct WarpContext
{
    // Identity.
    std::uint32_t blockSlot = 0;   ///< resident-block slot within the SM
    std::uint32_t warpInBlock = 0;
    std::uint32_t laneCount = 0;   ///< live lanes (may be < warpWidth)

    // Control flow.
    std::uint32_t pc = 0;
    LaneMask activeMask = 0;
    LaneMask exitedMask = 0;
    std::vector<ReconvEntry> stack;
    WarpStatus status = WarpStatus::Ready;

    // Predicate file: one lane-mask per predicate register.
    std::array<LaneMask, kNumPredRegs> preds{};

    // Timing: earliest cycle at which the next instruction may issue.
    Cycle readyCycle = 0;
    // Scoreboard: per-register earliest-use cycles.
    std::vector<Cycle> vregReady;
    std::vector<Cycle> sregReady;
    std::array<Cycle, kNumPredRegs> predReady{};

    /** Lanes currently executing (active minus exited). */
    LaneMask
    currentLanes() const
    {
        return activeMask & ~exitedMask;
    }

    bool
    finished() const
    {
        return status == WarpStatus::Finished;
    }

    /**
     * Fold everything that steers this warp's future execution into
     * @p h: control flow (PC, masks, reconvergence stack, predicates)
     * *and* timing (readyCycle, scoreboards) — two states that differ
     * only in a scoreboard entry still schedule differently, so timing
     * is architecturally visible to the trajectory.
     */
    void
    hashInto(StateHash& h) const
    {
        h.mix(blockSlot);
        h.mix(warpInBlock);
        h.mix(laneCount);
        h.mix(pc);
        h.mix(activeMask);
        h.mix(exitedMask);
        h.mix(stack.size());
        for (const ReconvEntry& e : stack) {
            h.mix(static_cast<std::uint64_t>(e.kind));
            h.mix(e.pc);
            h.mix(e.mask);
        }
        h.mix(static_cast<std::uint64_t>(status));
        for (LaneMask p : preds)
            h.mix(p);
        h.mix(readyCycle);
        for (Cycle c : vregReady)
            h.mix(c);
        for (Cycle c : sregReady)
            h.mix(c);
        for (Cycle c : predReady)
            h.mix(c);
    }
};

} // namespace gpr

#endif // GPR_SIM_WARP_HH
