#include "reliability/access_profile.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/gpu.hh"

namespace gpr {

const AccessSummary&
AccessProfileResult::forStructure(TargetStructure s) const
{
    return structureEntry(structures, s, "AccessProfileResult");
}

AccessProfiler::AccessProfiler(const GpuConfig& config)
{
    for (const StructureSpec& spec : structureRegistry()) {
        counters_[static_cast<std::size_t>(spec.id)] = UnitTable<Counts>(
            spec.aceUnitsPerSm(config), structureInstances(config, spec.id));
    }
}

UnitTable<AccessProfiler::Counts>&
AccessProfiler::counters(TargetStructure structure)
{
    const auto index = static_cast<std::size_t>(structure);
    if (index >= counters_.size()) {
        fatal("access event for unregistered structure id ",
              static_cast<unsigned>(structure));
    }
    return counters_[index];
}

const UnitTable<AccessProfiler::Counts>&
AccessProfiler::counters(TargetStructure structure) const
{
    return const_cast<AccessProfiler*>(this)->counters(structure);
}

void
AccessProfiler::onRead(TargetStructure structure, SmId sm,
                       std::uint32_t word, Word, Cycle)
{
    UnitTable<Counts>& t = counters(structure);
    ++t[t.index(sm, word)].reads;
}

void
AccessProfiler::onWrite(TargetStructure structure, SmId sm,
                        std::uint32_t word, Cycle)
{
    UnitTable<Counts>& t = counters(structure);
    ++t[t.index(sm, word)].writes;
}

AccessSummary
AccessProfiler::summary(TargetStructure structure) const
{
    const UnitTable<Counts>& t = counters(structure);
    AccessSummary s;
    s.structure = structure;
    s.totalWords = t.size();

    std::vector<std::uint64_t> per_word;
    t.forEachTouched([&](std::size_t, const Counts& c) {
        const std::uint64_t total = std::uint64_t{c.reads} + c.writes;
        s.reads += c.reads;
        s.writes += c.writes;
        if (total > 0) {
            ++s.touchedWords;
            per_word.push_back(total);
        }
    });

    if (!per_word.empty()) {
        std::sort(per_word.begin(), per_word.end(),
                  std::greater<std::uint64_t>());
        const std::size_t top =
            std::max<std::size_t>(1, per_word.size() / 10);
        std::uint64_t top_sum = 0, all_sum = 0;
        for (std::size_t i = 0; i < per_word.size(); ++i) {
            all_sum += per_word[i];
            if (i < top)
                top_sum += per_word[i];
        }
        s.top10Share = all_sum ? static_cast<double>(top_sum) /
                                     static_cast<double>(all_sum)
                               : 0.0;
    }
    return s;
}

AccessProfileResult
profileAccesses(const GpuConfig& config, const WorkloadInstance& instance)
{
    AccessProfiler profiler(config);
    Gpu gpu(config);
    RunOptions options;
    options.observer = &profiler;
    const RunResult run = gpu.run(instance.program, instance.launch,
                                  instance.image, options);
    if (!run.clean()) {
        fatal("access profiling: fault-free run of '",
              instance.workloadName, "' trapped (",
              trapKindName(run.trap), ")");
    }

    AccessProfileResult result;
    result.structures.reserve(kNumTargetStructures);
    for (const StructureSpec& spec : structureRegistry())
        result.structures.push_back(profiler.summary(spec.id));
    return result;
}

} // namespace gpr
