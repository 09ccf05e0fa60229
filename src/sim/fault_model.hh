/**
 * @file
 * The fault model shared by the simulator and the reliability layer: a
 * fault is a **behavior × pattern × target** description.  The behavior
 * says how the fault evolves over time (one-shot transient flip,
 * stuck-at forced value, intermittent duty cycle), the pattern says how
 * many adjacent cell bits it touches (single, adjacent-double,
 * adjacent-quad — the classic MBU shapes), and the target names the
 * hardware structure and the bit within it.  The default-constructed
 * shape (transient × single) reproduces the original single-bit-flip
 * model exactly.
 */

#ifndef GPR_SIM_FAULT_MODEL_HH
#define GPR_SIM_FAULT_MODEL_HH

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/types.hh"

namespace gpr {

/**
 * Structures that can be targeted by injection / ACE analysis.  The
 * enumerators are dense indices into the structure registry (see
 * sim/structure_registry.hh), which holds everything else that used to
 * live in per-structure switch statements: names, kinds, bit budgets,
 * dead-window availability.
 */
enum class TargetStructure : std::uint8_t
{
    // Word-granular storage (the paper's three structures).
    VectorRegisterFile,
    SharedMemory,       ///< local memory in AMD terminology
    ScalarRegisterFile, ///< Southern Islands only

    // Packed control bits over resident warp slots.
    PredicateFile,      ///< per-warp predicate registers (lane masks)
    SimtStack,          ///< PC + active/exited masks + reconvergence stack

    // Cache arrays: tag + valid + dirty metadata plus data lines.
    L1DataCache,        ///< per-SM L1 data cache
    L1InstructionCache, ///< per-SM L1 instruction cache
    L2Cache,            ///< chip-shared L2 cache
};

/** Number of registered target structures (registry size). */
constexpr std::size_t kNumTargetStructures = 8;

/** Canonical display name; throws FatalError on an unregistered id. */
std::string_view targetStructureName(TargetStructure s);

/**
 * Temporal behavior of an injected fault.
 *
 *  - **Transient**: one XOR at the fault cycle; the classic SEU model
 *    every prior campaign used.  Served by the checkpoint engine's
 *    dead-window prefilter.
 *  - **StuckAt0 / StuckAt1**: the faulty cell is forced to 0/1 from the
 *    fault cycle to the end of the run, re-asserted on every access of
 *    the cell (hard/permanent fault).
 *  - **Intermittent**: stuck-at with a deterministic duty cycle — the
 *    forcing is active for FaultSpec::intermittentActive cycles out of
 *    every FaultSpec::intermittentPeriod, starting at the fault cycle;
 *    outside the active phase the cell retains/recovers its stored
 *    value (marginal-cell model).
 */
enum class FaultBehavior : std::uint8_t
{
    Transient,
    StuckAt0,
    StuckAt1,
    Intermittent,
};

/** Number of fault behaviors (for iteration / tables). */
constexpr std::size_t kNumFaultBehaviors = 4;

/** Persistent behaviors outlive the fault cycle: the forcing is
 *  re-asserted on every access, so the transient dead-window prefilter
 *  does not apply (a "dead" interval ends at the next re-assertion).
 *  Word storage gets a persistence-sound equivalent instead, the
 *  value-residency prefilter (FaultWindows::stuckAgreeCycle; see
 *  FaultInjector::inject). */
constexpr bool
faultBehaviorPersistent(FaultBehavior b)
{
    return b != FaultBehavior::Transient;
}

/**
 * Spatial shape of an injected fault: how many physically adjacent bits
 * of the target cell it upsets (gpuFI-style multi-bit-upset modes).
 * The affected bits are the pattern-aligned group containing the
 * sampled bit (bit - bit % width .. + width), so uniform bit sampling
 * yields uniform cell sampling; the group never crosses a 32-bit word.
 */
enum class FaultPattern : std::uint8_t
{
    SingleBit,
    AdjacentDouble,
    AdjacentQuad,
};

/** Number of fault patterns (for iteration / tables). */
constexpr std::size_t kNumFaultPatterns = 3;

/** Bits touched by @p p (1, 2 or 4; always a divisor of 32). */
constexpr unsigned
faultPatternWidth(FaultPattern p)
{
    return p == FaultPattern::SingleBit        ? 1u
           : p == FaultPattern::AdjacentDouble ? 2u
                                               : 4u;
}

/**
 * The (behavior, pattern) pair that parameterizes a campaign: every
 * injection of the campaign shares one shape while target/bit/cycle are
 * sampled per injection.  Default-constructed = transient single-bit,
 * the exact pre-redesign model.
 */
struct FaultShape
{
    FaultBehavior behavior = FaultBehavior::Transient;
    FaultPattern pattern = FaultPattern::SingleBit;

    bool
    isDefault() const
    {
        return behavior == FaultBehavior::Transient &&
               pattern == FaultPattern::SingleBit;
    }

    bool
    persistent() const
    {
        return faultBehaviorPersistent(behavior);
    }

    friend bool
    operator==(const FaultShape& a, const FaultShape& b)
    {
        return a.behavior == b.behavior && a.pattern == b.pattern;
    }
    friend bool
    operator!=(const FaultShape& a, const FaultShape& b)
    {
        return !(a == b);
    }
};

/** Every fault behavior, in enum order. */
std::vector<FaultBehavior> allFaultBehaviors();

/** Canonical behavior name: "transient", "stuck-at-0", "stuck-at-1",
 *  "intermittent". */
std::string_view faultBehaviorName(FaultBehavior b);

/** Parse a canonical behavior name; false if unknown. */
bool tryFaultBehaviorFromName(std::string_view name, FaultBehavior& out);

/** Parse a canonical behavior name; throws FatalError listing the known
 *  names on failure. */
FaultBehavior faultBehaviorFromName(std::string_view name);

/** Canonical pattern name: "single", "adjacent-double", "adjacent-quad". */
std::string_view faultPatternName(FaultPattern p);

/** Parse a canonical pattern name; false if unknown. */
bool tryFaultPatternFromName(std::string_view name, FaultPattern& out);

/** Parse a canonical pattern name; throws FatalError listing the known
 *  names on failure. */
FaultPattern faultPatternFromName(std::string_view name);

/**
 * One fault: upset the pattern-aligned bit group of @p structure
 * containing chip-wide bit @p bitIndex, starting at cycle @p cycle,
 * evolving per @p behavior.  bitIndex spans every SM's instance of the
 * structure (bitsPerSm * numSms bits total); unallocated storage and
 * empty control cells are part of the target space by design — hitting
 * them is how occupancy couples to AVF.
 *
 * Aggregate-initializing only {structure, bitIndex, cycle} (the
 * pre-redesign field set) yields a transient single-bit flip — the
 * original model, bit-for-bit.
 */
struct FaultSpec
{
    TargetStructure structure = TargetStructure::VectorRegisterFile;
    BitIndex bitIndex = 0;
    Cycle cycle = 0;

    // Shape (appended with defaults so legacy {s, b, c} initialization
    // keeps meaning a transient single-bit flip).
    FaultBehavior behavior = FaultBehavior::Transient;
    FaultPattern pattern = FaultPattern::SingleBit;

    // Intermittent duty cycle: forcing is active for the first
    // intermittentActive cycles of every intermittentPeriod-cycle window
    // after `cycle`.  Ignored (and left 0) for other behaviors.
    std::uint32_t intermittentPeriod = 0;
    std::uint32_t intermittentActive = 0;
    /** Value an Intermittent fault forces while active (StuckAt0/1
     *  encode their value in the behavior itself). */
    bool intermittentValue = false;

    FaultShape
    shape() const
    {
        return FaultShape{behavior, pattern};
    }

    bool
    persistent() const
    {
        return faultBehaviorPersistent(behavior);
    }
};

/** The value a persistent @p fault forces while active. */
constexpr bool
faultForcedValue(const FaultSpec& fault)
{
    return fault.behavior == FaultBehavior::StuckAt1 ||
           (fault.behavior == FaultBehavior::Intermittent &&
            fault.intermittentValue);
}

} // namespace gpr

#endif // GPR_SIM_FAULT_MODEL_HH
