#include "reliability/ace.hh"

// gpr:lint-allow-file(D1): timing whitelist — steady_clock reads feed
// only the analysisSeconds diagnostic, never ACE counts or hashes.

#include <chrono>

#include "common/logging.hh"
#include "sim/gpu.hh"

namespace gpr {

const AceStructureResult&
AceResult::forStructure(TargetStructure s) const
{
    return structureEntry(structures, s, "AceResult");
}

AceAnalyzer::AceAnalyzer(const GpuConfig& config, AceMode mode)
    : mode_(mode)
{
    trackers_.resize(kNumTargetStructures);
    for (const StructureSpec& spec : structureRegistry()) {
        StructureTracker& t = trackers_[static_cast<std::size_t>(spec.id)];
        const std::uint64_t units_per_sm = spec.aceUnitsPerSm(config);
        t.units = UnitTable<UnitState>(units_per_sm,
                                       structureInstances(config, spec.id));
        if (spec.aceUnitBits) {
            t.unitBits.resize(units_per_sm);
            for (std::uint32_t u = 0; u < units_per_sm; ++u)
                t.unitBits[u] = spec.aceUnitBits(config, u);
        }
    }
}

AceAnalyzer::StructureTracker&
AceAnalyzer::tracker(TargetStructure structure)
{
    const auto index = static_cast<std::size_t>(structure);
    if (index >= trackers_.size()) {
        fatal("ACE event for unregistered structure id ",
              static_cast<unsigned>(structure));
    }
    return trackers_[index];
}

const AceAnalyzer::StructureTracker&
AceAnalyzer::tracker(TargetStructure structure) const
{
    return const_cast<AceAnalyzer*>(this)->tracker(structure);
}

void
AceAnalyzer::commit(StructureTracker& t, std::size_t unit, UnitState& u,
                    Cycle upto)
{
    if (!u.allocated || !u.readSinceWrite)
        return;
    const Cycle end = mode_ == AceMode::Standard ? u.lastRead : upto;
    if (end > u.write) {
        std::uint64_t weight = 1;
        if (!t.unitBits.empty()) {
            // Nonuniform units: weight the interval by the unit's bit
            // count so the structure AVF bounds bit-uniform injection.
            weight = t.unitBits[unit % t.unitBits.size()];
        }
        t.aceCycles += (end - u.write) * weight;
    }
}

void
AceAnalyzer::onRead(TargetStructure structure, SmId sm, std::uint32_t word,
                    Word, Cycle cycle)
{
    StructureTracker& t = tracker(structure);
    UnitState& u = t.units[t.units.index(sm, word)];
    u.lastRead = cycle;
    u.readSinceWrite = true;
}

void
AceAnalyzer::onWrite(TargetStructure structure, SmId sm, std::uint32_t word,
                     Cycle cycle)
{
    StructureTracker& t = tracker(structure);
    const std::size_t unit = t.units.index(sm, word);
    UnitState& u = t.units[unit];
    commit(t, unit, u, cycle);
    u.write = cycle;
    u.readSinceWrite = false;
}

void
AceAnalyzer::onAlloc(TargetStructure structure, SmId sm,
                     std::uint32_t first, std::uint32_t count, Cycle cycle)
{
    StructureTracker& t = tracker(structure);
    const std::size_t base = t.units.index(sm, first, count);
    for (std::size_t i = 0; i < count; ++i) {
        UnitState& u = t.units[base + i];
        u.allocated = true;
        u.write = cycle; // contents architecturally undefined => new epoch
        u.readSinceWrite = false;
    }
}

void
AceAnalyzer::onFree(TargetStructure structure, SmId sm, std::uint32_t first,
                    std::uint32_t count, Cycle cycle)
{
    StructureTracker& t = tracker(structure);
    const std::size_t base = t.units.index(sm, first, count);
    for (std::size_t i = 0; i < count; ++i) {
        UnitState& u = t.units[base + i];
        commit(t, base + i, u, cycle);
        u.allocated = false;
        u.readSinceWrite = false;
    }
}

void
AceAnalyzer::onKernelEnd(Cycle cycle)
{
    // Untouched units were never allocated: nothing to commit there.
    for (StructureTracker& t : trackers_) {
        t.units.forEachTouched([&](std::size_t unit, UnitState& u) {
            commit(t, unit, u, cycle);
            u.allocated = false;
            u.readSinceWrite = false;
        });
    }
}

std::uint64_t
AceAnalyzer::aceUnitCycles(TargetStructure structure) const
{
    return tracker(structure).aceCycles;
}

AceResult
runAceAnalysis(const GpuConfig& config, const WorkloadInstance& instance,
               AceMode mode)
{
    const auto t0 = std::chrono::steady_clock::now();

    AceAnalyzer analyzer(config, mode);
    Gpu gpu(config);
    RunOptions options;
    options.observer = &analyzer;
    RunResult run = gpu.run(instance.program, instance.launch,
                            instance.image, options);
    if (!run.clean()) {
        fatal("ACE analysis: fault-free run of '", instance.workloadName,
              "' trapped (", trapKindName(run.trap), ")");
    }
    std::string why;
    if (!verifyOutputs(instance, run.memory, &why)) {
        fatal("ACE analysis: golden check failed: ", why);
    }

    AceResult result;
    result.goldenStats = run.stats;
    result.structures.reserve(kNumTargetStructures);
    for (const StructureSpec& spec : structureRegistry()) {
        AceStructureResult r;
        r.structure = spec.id;
        r.aceUnitCycles = analyzer.aceUnitCycles(spec.id);
        // Bit-weighted structures divide bit-cycles by bits; uniform
        // structures divide unit-cycles by units (same ratio per bit).
        r.totalUnits = spec.aceUnitBits
                           ? structureBitsTotal(config, spec.id)
                           : structureAceUnitsTotal(config, spec.id);
        r.cycles = run.stats.cycles;
        result.structures.push_back(r);
    }

    const auto t1 = std::chrono::steady_clock::now();
    result.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
    return result;
}

} // namespace gpr
