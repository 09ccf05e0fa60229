/**
 * @file
 * The data-driven target-structure registry.
 *
 * Every layer that used to switch over the three hard-coded structures —
 * ACE analysis, fault windows, the injector, campaigns, breakdowns,
 * export, the orchestrator and the CLI — now iterates this table
 * instead.  Adding a structure means adding one StructureSpec row plus
 * the sim-layer binding (SmCore::applyFault + observer events); everything
 * above the simulator picks the new entry up automatically (see the
 * "Adding a target structure" section of the README).
 *
 * Three structure kinds exist:
 *
 *  - **WordStorage**: 32-bit-word-granular SRAM (register files, LDS)
 *    backed by a WordStorage instance.  The golden access trace yields
 *    *exact* per-word dead windows, so the checkpoint engine can
 *    classify most faults with zero simulation.
 *  - **ControlBits**: packed per-warp control state (predicate file,
 *    SIMT reconvergence stack + PC), laid out bit-linearly over the
 *    SM's resident warp slots.  Every consumer reports a read of its
 *    unit first (a guard, SELP or SETP's merge reads a predicate
 *    register; each issue reads the PC/mask unit; a pop reads its stack
 *    entry) and warp dispatch rewrites them all, so each predicate
 *    register, PC/mask unit and stack entry gets exact dead windows
 *    too.  A bit group straddling two SIMT units gets none.
 *  - **CacheArray**: modeled cache lines (tag + valid/dirty + data; see
 *    sim/cache.hh) of the L1d/L1i/L2 hierarchy.  A data word's value
 *    leaves the array only through a modelled read (a hit, a fetch or a
 *    writeback), and stores and line refills overwrite it, so data words
 *    get exact dead windows like word storage.  Metadata faults act
 *    through address comparison rather than reads, so tag, valid and
 *    dirty bits have none; checkpoint restore still applies to them.
 *
 * The checkpoint engine's zero-simulation prefilter rests on these
 * windows, for transient faults only (a persistent fault's cell is never
 * dead while the forcing holds).  One function maps a fault's bit group
 * to its window unit: deadWindowUnit() in reliability/fault_injector.cc.
 */

#ifndef GPR_SIM_STRUCTURE_REGISTRY_HH
#define GPR_SIM_STRUCTURE_REGISTRY_HH

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "arch/gpu_config.hh"
#include "common/logging.hh"
#include "isa/instruction.hh"
#include "sim/fault_model.hh"
#include "sim/stats.hh"

namespace gpr {

enum class StructureKind : std::uint8_t
{
    WordStorage, ///< 32-bit-word-granular SRAM with alloc/free
    ControlBits, ///< packed control bits over resident warp slots
    CacheArray,  ///< tag + valid/dirty + data cache lines (sim/cache.hh)
};

/**
 * Whether one instance of the structure exists per SM (the registry's
 * historical assumption) or once for the whole chip (the shared L2).
 * Everything that multiplies a per-instance size by numSms — total
 * bits/units, ACE tracker sizing, window recorder sizing — is
 * scope-aware; chip-scoped structures report observer events as SM 0.
 */
enum class StructureScope : std::uint8_t
{
    PerSm,
    Chip,
};

/**
 * How a structure hosts persistent (stuck-at / intermittent) faults.
 * A structure opts into persistence by binding one of these hooks in
 * its registry row; None means persistent behaviors are rejected for
 * it.  All five built-in rows bind a hook.
 */
enum class PersistenceHook : std::uint8_t
{
    None,               ///< persistent faults unsupported
    /** WordStorage read-side overlay: reads of the faulty word see the
     *  forced bits, writes retain the raw value underneath (so an
     *  intermittent fault's inactive phase recovers stored data). */
    StorageReadOverlay,
    /** Control bits live in named context fields consumed only during
     *  SmCore::stepCycle, so persistence = re-forcing the faulty bits
     *  before every stepped cycle (idempotent, hence insensitive to
     *  how many idle cycles the run loop lands on). */
    CycleReassert,
};

/**
 * Modelled hardware depth of the SIMT reconvergence stack.  Pushes
 * beyond this depth still simulate (the software stack is unbounded)
 * but only the first kSimtStackDepth entries exist as fault-injectable
 * hardware cells.
 */
constexpr std::uint32_t kSimtStackDepth = 16;

// --- Control-state bit geometry (shared by the flip mapping, the -------
// --- registry sizes and the tests) -------------------------------------

/** Predicate-file bits per warp slot: one lane mask per predicate reg. */
inline std::uint64_t
predBitsPerWarp(const GpuConfig& config)
{
    return std::uint64_t{kNumPredRegs} * config.warpWidth;
}

/** Bits of one SIMT stack entry: kind + PC + lane mask. */
inline std::uint64_t
simtEntryBits(const GpuConfig& config)
{
    return 1 + 32 + std::uint64_t{config.warpWidth};
}

/** Bits of a warp slot's SIMT PC/mask unit: PC + active/exited masks. */
inline std::uint64_t
simtHeadBits(const GpuConfig& config)
{
    return 32 + 2 * std::uint64_t{config.warpWidth};
}

/** SIMT control bits per warp slot: PC, active/exited masks, stack. */
inline std::uint64_t
simtBitsPerWarp(const GpuConfig& config)
{
    return simtHeadBits(config) + kSimtStackDepth * simtEntryBits(config);
}

/** ACE units per warp slot of the SIMT target: the PC/mask unit plus
 *  one unit per hardware stack entry. */
constexpr std::uint32_t kSimtUnitsPerWarp = 1 + kSimtStackDepth;

/**
 * One registered target structure.  Sizes are functions of the device
 * configuration so a single table serves every GPU model; a structure a
 * chip lacks reports 0 bits (e.g. the scalar RF on NVIDIA parts).
 */
struct StructureSpec
{
    TargetStructure id = TargetStructure::VectorRegisterFile;
    StructureKind kind = StructureKind::WordStorage;
    /** Canonical display name, e.g. "register-file". */
    std::string_view name;
    /** Short CLI alias, e.g. "rf". */
    std::string_view shortName;
    /** Key used in JSON exports, e.g. "register_file". */
    std::string_view jsonKey;
    /** How this structure hosts stuck-at / intermittent faults. */
    PersistenceHook persistenceHook = PersistenceHook::None;
    /** One instance per SM, or one chip-shared instance (the L2). */
    StructureScope scope = StructureScope::PerSm;

    /** Fault-injectable bits per instance — per SM/CU for PerSm scope,
     *  chip-wide for Chip scope — on @p config (0 = chip lacks it). */
    std::uint64_t (*bitsPerSm)(const GpuConfig&) = nullptr;
    /**
     * Lifetime-accounting granules per SM: 32-bit words for word
     * storage, logical control units (one predicate register / one
     * stack entry / the PC+mask group) for control bits.  Observer
     * read/write/alloc/free events address these units.
     */
    std::uint64_t (*aceUnitsPerSm)(const GpuConfig&) = nullptr;
    /**
     * Bit width of SM-relative ACE unit @p unit, for structures whose
     * units are NOT uniform 32-bit words (null = uniform words).  ACE
     * accounting weights each unit's lifetime by its bit count so the
     * structure AVF stays a conservative bound on bit-uniform fault
     * injection even when units differ in size (the SIMT PC/mask group
     * vs. a stack entry).  Invariant: the widths of one SM's units sum
     * to bitsPerSm.
     */
    std::uint32_t (*aceUnitBits)(const GpuConfig&, std::uint32_t unit) =
        nullptr;
    /** The golden-run occupancy series this structure's AVF is compared
     *  against in reports (control state occupancy = warp residency). */
    double (*occupancy)(const SimStats&) = nullptr;
};

/** The registry, indexed by TargetStructure value. */
const std::array<StructureSpec, kNumTargetStructures>& structureRegistry();

/** Spec lookup; throws FatalError on an unregistered id. */
const StructureSpec& structureSpec(TargetStructure id);

/** Parse a canonical or short name; false if @p name is unregistered. */
bool tryTargetStructureFromName(std::string_view name, TargetStructure& out);

/** Parse a canonical or short name; throws FatalError listing the
 *  registered names on failure. */
TargetStructure targetStructureFromName(std::string_view name);

/** Chip-wide fault-injectable bits of @p id on @p config. */
std::uint64_t structureBitsTotal(const GpuConfig& config,
                                 TargetStructure id);

/**
 * Does @p id apply to a cell of @p config running a kernel that does
 * (or does not) use local memory?  A structure the chip lacks (0 bits)
 * never applies; local memory applies only to kernels that use it.
 * The single applicability rule shared by the study orchestrator and
 * the throughput bench.
 */
bool structureApplies(const GpuConfig& config, TargetStructure id,
                      bool uses_local_memory);

/**
 * The structures a fault-injection grid targets on one cell, in
 * registry order: every applicable structure, optionally intersected
 * with @p requested (empty = no restriction).  The single selection
 * rule shared by the study orchestrator and the throughput bench.
 */
std::vector<TargetStructure>
selectStructures(const GpuConfig& config, bool uses_local_memory,
                 const std::vector<TargetStructure>& requested);

/**
 * Registry-ordered lookup shared by every per-structure result vector
 * (`AceResult`, `ReliabilityReport`, `AccessProfileResult`): elements
 * carry a `structure` id field and sit at their enum index.  Throws
 * FatalError — naming @p what — when the entry is missing, so a
 * registry/result mismatch fails loudly instead of aliasing another
 * structure's numbers.
 */
template <typename T>
const T&
structureEntry(const std::vector<T>& entries, TargetStructure s,
               std::string_view what)
{
    const auto index = static_cast<std::size_t>(s);
    if (index >= entries.size() || entries[index].structure != s) {
        fatal(what, " holds no entry for structure id ",
              static_cast<unsigned>(s),
              " — registry and result are out of sync");
    }
    return entries[index];
}

/** Instances of @p id on @p config: one per SM, or one for a
 *  chip-scoped structure (whose events all name SM 0). */
std::uint64_t structureInstances(const GpuConfig& config,
                                 TargetStructure id);

/** Every registered structure, in registry order. */
std::vector<TargetStructure> registeredStructures();

/** Chip-wide ACE units of @p id on @p config. */
std::uint64_t structureAceUnitsTotal(const GpuConfig& config,
                                     TargetStructure id);

} // namespace gpr

#endif // GPR_SIM_STRUCTURE_REGISTRY_HH
