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
    counters_.resize(kNumTargetStructures);
    for (const StructureSpec& spec : structureRegistry()) {
        Counters& c = counters_[static_cast<std::size_t>(spec.id)];
        const std::uint64_t units_per_sm = spec.aceUnitsPerSm(config);
        if (units_per_sm == 0)
            continue;
        c.unitsPerSm = static_cast<std::uint32_t>(units_per_sm);
        const std::uint64_t instances = structureInstances(config, spec.id);
        c.reads.assign(instances * units_per_sm, 0);
        c.writes.assign(instances * units_per_sm, 0);
    }
}

AccessProfiler::Counters&
AccessProfiler::counters(TargetStructure structure)
{
    const auto index = static_cast<std::size_t>(structure);
    if (index >= counters_.size()) {
        fatal("access event for unregistered structure id ",
              static_cast<unsigned>(structure));
    }
    return counters_[index];
}

const AccessProfiler::Counters&
AccessProfiler::counters(TargetStructure structure) const
{
    return const_cast<AccessProfiler*>(this)->counters(structure);
}

void
AccessProfiler::onRead(TargetStructure structure, SmId sm,
                       std::uint32_t word, Word, Cycle)
{
    Counters& c = counters(structure);
    ++c.reads[std::uint64_t{sm} * c.unitsPerSm + word];
}

void
AccessProfiler::onWrite(TargetStructure structure, SmId sm,
                        std::uint32_t word, Cycle)
{
    Counters& c = counters(structure);
    ++c.writes[std::uint64_t{sm} * c.unitsPerSm + word];
}

AccessSummary
AccessProfiler::summary(TargetStructure structure) const
{
    const Counters& c = counters(structure);
    AccessSummary s;
    s.structure = structure;
    s.totalWords = c.reads.size();

    std::vector<std::uint64_t> per_word;
    for (std::size_t i = 0; i < c.reads.size(); ++i) {
        const std::uint64_t total =
            std::uint64_t{c.reads[i]} + c.writes[i];
        s.reads += c.reads[i];
        s.writes += c.writes[i];
        if (total > 0) {
            ++s.touchedWords;
            per_word.push_back(total);
        }
    }

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
