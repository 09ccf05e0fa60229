/**
 * @file
 * ACE (Architecturally Correct Execution) analysis — the fast alternative
 * to fault injection (Mukherjee et al., MICRO 2003), as implemented inside
 * GUFI/SIFI.
 *
 * One instrumented simulation tracks, for every lifetime-accounting unit
 * of every registered structure (32-bit words for storage structures,
 * logical control units — a predicate register, a SIMT stack entry, the
 * PC/mask group — for control-bit structures), the intervals during which
 * a bit flip *could* propagate to the output.  Two accounting modes:
 *
 *  - Standard (offline, what the paper's tools use): a unit is ACE from
 *    each write to the *last* read before the next write / deallocation.
 *  - Conservative: from each write to the next write / deallocation,
 *    provided at least one read consumed the value ("no future knowledge"
 *    — used by the ablation bench to show the accuracy/overhead knob).
 *
 * Both are conservative relative to fault injection: every read is assumed
 * to matter, whole units are counted even when only a few bits are live,
 * and logical masking (tolerance slack, pruned comparisons, saturation) is
 * invisible — which is exactly why the paper finds ACE overestimating the
 * register file AVF while matching FI closely for local memory.
 */

#ifndef GPR_RELIABILITY_ACE_HH
#define GPR_RELIABILITY_ACE_HH

#include <cstdint>
#include <vector>

#include "arch/gpu_config.hh"
#include "reliability/unit_table.hh"
#include "sim/observer.hh"
#include "sim/stats.hh"
#include "sim/structure_registry.hh"
#include "workloads/workload.hh"

namespace gpr {

enum class AceMode : std::uint8_t
{
    Standard,     ///< write -> last read
    Conservative, ///< write -> next write (if read at all)
};

/** Per-structure ACE measurement. */
struct AceStructureResult
{
    TargetStructure structure = TargetStructure::VectorRegisterFile;
    /**
     * Sum over units of ACE cycles.  Uniform-unit structures (word
     * storage, predicate file) count one per unit-cycle; structures
     * with nonuniform units (the SIMT stack: a wide PC/mask group next
     * to narrower stack entries) weight each unit by its bit count so
     * the AVF stays a conservative bound on bit-uniform fault
     * injection.  totalUnits uses the matching denominator (units vs.
     * bits), so avf() is comparable either way.
     */
    std::uint64_t aceUnitCycles = 0;
    /** Denominator: lifetime-accounting units, or bits for structures
     *  with nonuniform unit widths (chip-wide). */
    std::uint64_t totalUnits = 0;
    /** Kernel duration in cycles. */
    Cycle cycles = 0;

    double
    avf() const
    {
        const double denom = static_cast<double>(totalUnits) *
                             static_cast<double>(cycles);
        return denom > 0 ? static_cast<double>(aceUnitCycles) / denom : 0.0;
    }
};

/** Full ACE analysis output for one (GPU, workload) pair. */
struct AceResult
{
    /** One entry per registered structure, in registry order. */
    std::vector<AceStructureResult> structures;
    SimStats goldenStats;
    double wallSeconds = 0.0;

    /** Lookup by id; throws FatalError on an unregistered structure. */
    const AceStructureResult& forStructure(TargetStructure s) const;
};

/**
 * The SimObserver that performs lifetime accounting.  Exposed so tests
 * can drive it directly with synthetic event streams.
 *
 * Each structure keeps one UnitState per chip-global unit in a
 * UnitTable, allocated in blocks on a block's first event, so building
 * the analyzer and the sweep at onKernelEnd() cost only the blocks the
 * kernel touched, not the whole chip.  An event outside the structure
 * fails an assertion.
 */
class AceAnalyzer : public SimObserver
{
  public:
    AceAnalyzer(const GpuConfig& config, AceMode mode);

    void onRead(TargetStructure structure, SmId sm, std::uint32_t word,
                Word value, Cycle cycle) override;
    void onWrite(TargetStructure structure, SmId sm, std::uint32_t word,
                 Cycle cycle) override;
    void onAlloc(TargetStructure structure, SmId sm, std::uint32_t first,
                 std::uint32_t count, Cycle cycle) override;
    void onFree(TargetStructure structure, SmId sm, std::uint32_t first,
                std::uint32_t count, Cycle cycle) override;
    void onKernelEnd(Cycle cycle) override;

    /** Accumulated ACE unit-cycles for @p structure. */
    std::uint64_t aceUnitCycles(TargetStructure structure) const;

  private:
    struct UnitState
    {
        Cycle write = 0;
        Cycle lastRead = 0;
        bool allocated = false;
        bool readSinceWrite = false;
    };

    struct StructureTracker
    {
        UnitTable<UnitState> units; ///< one state per chip-global unit
        /** Per-unit bit weights (one instance's units, repeated per
         *  SM); empty = uniform units, weight 1. */
        std::vector<std::uint32_t> unitBits;
        std::uint64_t aceCycles = 0;
    };

    StructureTracker& tracker(TargetStructure structure);
    const StructureTracker& tracker(TargetStructure structure) const;
    /** Close the open interval of chip-global unit @p unit (state
     *  @p u) at @p upto. */
    void commit(StructureTracker& t, std::size_t unit, UnitState& u,
                Cycle upto);

    AceMode mode_;
    /** One tracker per registered structure, in registry order. */
    std::vector<StructureTracker> trackers_;
};

/**
 * Run one instrumented execution of @p instance on @p config and return
 * the ACE AVF of all registered structures.
 */
AceResult runAceAnalysis(const GpuConfig& config,
                         const WorkloadInstance& instance,
                         AceMode mode = AceMode::Standard);

} // namespace gpr

#endif // GPR_RELIABILITY_ACE_HH
