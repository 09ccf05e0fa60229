/**
 * @file
 * Storage access profiling — the "resource occupancy / usage" analysis
 * axis from Section I of the paper.
 *
 * One instrumented run counts reads and writes per physical unit of each
 * registered structure (32-bit words for storage, logical control units
 * for the predicate file / SIMT stack) and summarises how concentrated
 * the traffic is.  High concentration (e.g. a histogram's hot bins, a
 * reduction's low tree slots) explains why AVF is not simply
 * proportional to occupancy.
 */

#ifndef GPR_RELIABILITY_ACCESS_PROFILE_HH
#define GPR_RELIABILITY_ACCESS_PROFILE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "arch/gpu_config.hh"
#include "reliability/unit_table.hh"
#include "sim/observer.hh"
#include "sim/structure_registry.hh"
#include "workloads/workload.hh"

namespace gpr {

/** Traffic summary of one structure over one kernel run. */
struct AccessSummary
{
    TargetStructure structure = TargetStructure::VectorRegisterFile;
    std::uint64_t totalWords = 0;    ///< structure size in units (chip-wide)
    std::uint64_t touchedWords = 0;  ///< units with >= 1 access
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;

    /** Fraction of all accesses landing in the busiest 10 % of touched
     *  units (0.1 = perfectly even, 1.0 = fully concentrated). */
    double top10Share = 0.0;

    double
    touchedFraction() const
    {
        return totalWords ? static_cast<double>(touchedWords) /
                                static_cast<double>(totalWords)
                          : 0.0;
    }
    double
    readsPerWrite() const
    {
        return writes ? static_cast<double>(reads) /
                            static_cast<double>(writes)
                      : 0.0;
    }
};

/** SimObserver counting per-unit accesses; an event outside its
 *  structure throws PanicError. */
class AccessProfiler : public SimObserver
{
  public:
    explicit AccessProfiler(const GpuConfig& config);

    void onRead(TargetStructure structure, SmId sm, std::uint32_t word,
                Word value, Cycle cycle) override;
    void onWrite(TargetStructure structure, SmId sm, std::uint32_t word,
                 Cycle cycle) override;

    /** Summarise the traffic recorded so far for @p structure. */
    AccessSummary summary(TargetStructure structure) const;

  private:
    struct Counts
    {
        std::uint32_t reads = 0;
        std::uint32_t writes = 0;
    };

    UnitTable<Counts>& counters(TargetStructure structure);
    const UnitTable<Counts>& counters(TargetStructure structure) const;

    /** One counter table per registered structure, in registry order:
     *  blocks allocated on first touch, events range-checked. */
    std::array<UnitTable<Counts>, kNumTargetStructures> counters_;
};

/** Run one instrumented execution and return a summary per registered
 *  structure (registry order). */
struct AccessProfileResult
{
    std::vector<AccessSummary> structures;

    /** Lookup by id; throws FatalError on an unregistered structure. */
    const AccessSummary& forStructure(TargetStructure s) const;
};

AccessProfileResult profileAccesses(const GpuConfig& config,
                                    const WorkloadInstance& instance);

} // namespace gpr

#endif // GPR_RELIABILITY_ACCESS_PROFILE_HH
