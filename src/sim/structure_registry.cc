#include "sim/structure_registry.hh"

#include <algorithm>
#include <string>

#include "common/logging.hh"
#include "sim/cache.hh"

namespace gpr {
namespace {

std::uint64_t
vrfBits(const GpuConfig& c)
{
    return std::uint64_t{c.regFileWordsPerSm} * 32;
}

std::uint64_t
ldsBits(const GpuConfig& c)
{
    return std::uint64_t{c.smemWordsPerSm()} * 32;
}

std::uint64_t
srfBits(const GpuConfig& c)
{
    return std::uint64_t{c.scalarRegWordsPerSm} * 32;
}

std::uint64_t
predBits(const GpuConfig& c)
{
    return std::uint64_t{c.maxWarpsPerSm} * predBitsPerWarp(c);
}

std::uint64_t
simtBits(const GpuConfig& c)
{
    return std::uint64_t{c.maxWarpsPerSm} * simtBitsPerWarp(c);
}

std::uint64_t
vrfUnits(const GpuConfig& c)
{
    return c.regFileWordsPerSm;
}

std::uint64_t
ldsUnits(const GpuConfig& c)
{
    return c.smemWordsPerSm();
}

std::uint64_t
srfUnits(const GpuConfig& c)
{
    return c.scalarRegWordsPerSm;
}

std::uint64_t
predUnits(const GpuConfig& c)
{
    return std::uint64_t{c.maxWarpsPerSm} * kNumPredRegs;
}

std::uint64_t
simtUnits(const GpuConfig& c)
{
    return std::uint64_t{c.maxWarpsPerSm} * kSimtUnitsPerWarp;
}

std::uint32_t
simtUnitBits(const GpuConfig& c, std::uint32_t unit)
{
    // Unit 0 of each warp is the PC + active/exited masks; units
    // 1..kSimtStackDepth are (kind, pc, mask) stack entries.
    return static_cast<std::uint32_t>(unit % kSimtUnitsPerWarp == 0
                                          ? simtHeadBits(c)
                                          : simtEntryBits(c));
}

std::uint64_t
l1dBits(const GpuConfig& c)
{
    return c.l1dLinesPerSm() * cacheLineBits(c.cacheLineWords());
}

std::uint64_t
l1iBits(const GpuConfig& c)
{
    return c.l1iLinesPerSm() * cacheLineBits(c.cacheLineWords());
}

std::uint64_t
l2Bits(const GpuConfig& c)
{
    return c.l2Lines() * cacheLineBits(c.cacheLineWords());
}

std::uint64_t
l1dUnits(const GpuConfig& c)
{
    return c.l1dLinesPerSm() * cacheLineAceUnits(c.cacheLineWords());
}

std::uint64_t
l1iUnits(const GpuConfig& c)
{
    return c.l1iLinesPerSm() * cacheLineAceUnits(c.cacheLineWords());
}

std::uint64_t
l2Units(const GpuConfig& c)
{
    return c.l2Lines() * cacheLineAceUnits(c.cacheLineWords());
}

std::uint32_t
cacheUnitBits(const GpuConfig& c, std::uint32_t unit)
{
    // Unit 0 of each line is the 34-bit metadata group (tag + valid +
    // dirty); the rest are 32-bit data words.
    return unit % cacheLineAceUnits(c.cacheLineWords()) == 0 ? 34 : 32;
}

double
vrfOcc(const SimStats& s)
{
    return s.avgRegFileOccupancy;
}

double
ldsOcc(const SimStats& s)
{
    return s.avgSmemOccupancy;
}

double
srfOcc(const SimStats& s)
{
    return s.avgScalarRegOccupancy;
}

double
warpOcc(const SimStats& s)
{
    return s.avgWarpOccupancy;
}

double
fullOcc(const SimStats&)
{
    // Cache arrays have no alloc/free lifecycle: every line is hardware
    // that a fault can land in for the whole run.
    return 1.0;
}

} // namespace

const std::array<StructureSpec, kNumTargetStructures>&
structureRegistry()
{
    static const std::array<StructureSpec, kNumTargetStructures> registry = {{
        {TargetStructure::VectorRegisterFile, StructureKind::WordStorage,
         "register-file", "rf", "register_file",
         PersistenceHook::StorageReadOverlay, StructureScope::PerSm,
         vrfBits, vrfUnits, /*aceUnitBits=*/nullptr, vrfOcc},
        {TargetStructure::SharedMemory, StructureKind::WordStorage,
         "local-memory", "lds", "local_memory",
         PersistenceHook::StorageReadOverlay, StructureScope::PerSm,
         ldsBits, ldsUnits, /*aceUnitBits=*/nullptr, ldsOcc},
        {TargetStructure::ScalarRegisterFile, StructureKind::WordStorage,
         "scalar-register-file", "srf", "scalar_register_file",
         PersistenceHook::StorageReadOverlay, StructureScope::PerSm,
         srfBits, srfUnits, /*aceUnitBits=*/nullptr, srfOcc},
        // Predicate units are uniform (one warpWidth-bit lane mask per
        // register), so no per-unit bit weighting is needed: unit-cycle
        // over unit accounting already equals the bit-weighted ratio.
        {TargetStructure::PredicateFile, StructureKind::ControlBits,
         "predicate-file", "pred", "predicate_file",
         PersistenceHook::CycleReassert, StructureScope::PerSm,
         predBits, predUnits, /*aceUnitBits=*/nullptr, warpOcc},
        {TargetStructure::SimtStack, StructureKind::ControlBits,
         "simt-stack", "simt", "simt_stack",
         PersistenceHook::CycleReassert, StructureScope::PerSm,
         simtBits, simtUnits, simtUnitBits, warpOcc},
        // Cache persistence re-forces the faulty bits of the raw line
        // each stepped cycle (CycleReassert).
        {TargetStructure::L1DataCache, StructureKind::CacheArray,
         "l1-data-cache", "l1d", "l1_data_cache",
         PersistenceHook::CycleReassert, StructureScope::PerSm,
         l1dBits, l1dUnits, cacheUnitBits, fullOcc},
        {TargetStructure::L1InstructionCache, StructureKind::CacheArray,
         "l1-instruction-cache", "l1i", "l1_instruction_cache",
         PersistenceHook::CycleReassert, StructureScope::PerSm,
         l1iBits, l1iUnits, cacheUnitBits, fullOcc},
        {TargetStructure::L2Cache, StructureKind::CacheArray,
         "l2-cache", "l2", "l2_cache",
         PersistenceHook::CycleReassert, StructureScope::Chip,
         l2Bits, l2Units, cacheUnitBits, fullOcc},
    }};
    return registry;
}

const StructureSpec&
structureSpec(TargetStructure id)
{
    const auto& registry = structureRegistry();
    const auto index = static_cast<std::size_t>(id);
    if (index >= registry.size()) {
        fatal("unregistered target structure id ",
              static_cast<unsigned>(id), " (registry holds ",
              registry.size(), " structures)");
    }
    const StructureSpec& spec = registry[index];
    GPR_ASSERT(spec.id == id, "structure registry is not enum-ordered");
    return spec;
}

std::string_view
targetStructureName(TargetStructure s)
{
    return structureSpec(s).name;
}

bool
tryTargetStructureFromName(std::string_view name, TargetStructure& out)
{
    for (const StructureSpec& spec : structureRegistry()) {
        if (name == spec.name || name == spec.shortName) {
            out = spec.id;
            return true;
        }
    }
    return false;
}

TargetStructure
targetStructureFromName(std::string_view name)
{
    TargetStructure out;
    if (tryTargetStructureFromName(name, out))
        return out;

    std::string known;
    for (const StructureSpec& spec : structureRegistry()) {
        if (!known.empty())
            known += ", ";
        known += std::string(spec.name) + " (" +
                 std::string(spec.shortName) + ")";
    }
    fatal("unknown target structure '", name, "'; registered: ", known);
}

std::uint64_t
structureInstances(const GpuConfig& config, TargetStructure id)
{
    return structureSpec(id).scope == StructureScope::PerSm ? config.numSms
                                                             : 1;
}

std::uint64_t
structureBitsTotal(const GpuConfig& config, TargetStructure id)
{
    return structureSpec(id).bitsPerSm(config) *
           structureInstances(config, id);
}

bool
structureApplies(const GpuConfig& config, TargetStructure id,
                 bool uses_local_memory)
{
    if (structureBitsTotal(config, id) == 0)
        return false;
    if (id == TargetStructure::SharedMemory && !uses_local_memory)
        return false;
    return true;
}

std::vector<TargetStructure>
selectStructures(const GpuConfig& config, bool uses_local_memory,
                 const std::vector<TargetStructure>& requested)
{
    std::vector<TargetStructure> out;
    for (const StructureSpec& spec : structureRegistry()) {
        if (!structureApplies(config, spec.id, uses_local_memory))
            continue;
        if (!requested.empty() &&
            std::find(requested.begin(), requested.end(), spec.id) ==
                requested.end()) {
            continue;
        }
        out.push_back(spec.id);
    }
    return out;
}

std::vector<TargetStructure>
registeredStructures()
{
    std::vector<TargetStructure> all;
    for (const StructureSpec& spec : structureRegistry())
        all.push_back(spec.id);
    return all;
}

std::uint64_t
structureAceUnitsTotal(const GpuConfig& config, TargetStructure id)
{
    return structureSpec(id).aceUnitsPerSm(config) *
           structureInstances(config, id);
}

} // namespace gpr
