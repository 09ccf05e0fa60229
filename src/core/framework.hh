/**
 * @file
 * ReliabilityFramework — the public façade of the library, playing the
 * role GUFI (NVIDIA) and SIFI (AMD) play in the paper: given a GPU model
 * and a benchmark, it produces every number the study needs — AVF by
 * fault injection, AVF by ACE analysis, structure occupancy, performance,
 * FIT and EPF — in one report.
 *
 * Typical use (see examples/quickstart.cc):
 *
 *     ReliabilityFramework fw(GpuModel::GeforceGtx480);
 *     StudySpec spec;
 *     spec.plan.injections = 400;
 *     ReliabilityReport rep = fw.analyze("vectoradd", spec);
 *     rep.printSummary(std::cout);
 */

#ifndef GPR_CORE_FRAMEWORK_HH
#define GPR_CORE_FRAMEWORK_HH

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "arch/gpu_config.hh"
#include "core/study_spec.hh"
#include "reliability/ace.hh"
#include "reliability/campaign.hh"
#include "reliability/fit_epf.hh"
#include "sim/structure_registry.hh"
#include "workloads/workloads.hh"

namespace gpr {

/** Per-structure reliability numbers. */
struct StructureReport
{
    TargetStructure structure = TargetStructure::VectorRegisterFile;
    bool applicable = false;   ///< e.g. LDS on a kernel with no shared use
    double avfFi = 0.0;
    double fiErrorMargin = 0.0;
    double sdcRate = 0.0;
    double dueRate = 0.0;
    /** Wilson intervals around the three measured rates, quoted at
     *  @ref ciConfidence (zero-width when nothing was injected). */
    Interval avfCi;
    Interval sdcCi;
    Interval dueCi;
    /** Largest CI half-width across SDC/DUE/AVF — what an adaptive
     *  campaign drove below the plan's margin. */
    double achievedMargin = 0.0;
    /** Confidence level of the intervals above. */
    double ciConfidence = 0.0;
    double avfAce = 0.0;
    double occupancy = 0.0;
    double fiWallSeconds = 0.0;
    /** Injections actually run: the adaptive stopping point, or the
     *  fixed plan size (0 = structure not measured). */
    std::size_t injections = 0;
    /** Fault model the FI rates above were measured under (study-wide;
     *  default = transient single-bit). */
    FaultBehavior behavior = FaultBehavior::Transient;
    FaultPattern pattern = FaultPattern::SingleBit;
};

/** Everything the study reports for one (GPU, benchmark) pair. */
struct ReliabilityReport
{
    std::string workload;
    GpuModel gpu = GpuModel::GeforceGtx480;
    std::string gpuName;

    /** One entry per registered structure, in registry order. */
    std::vector<StructureReport> structures;

    /** Lookup by id; throws FatalError on an unregistered structure. */
    const StructureReport& forStructure(TargetStructure s) const;

    // Performance.
    Cycle cycles = 0;
    double execSeconds = 0.0;
    double ipc = 0.0;
    double warpOccupancy = 0.0;

    // Combined metric (Fig. 3).
    EpfResult epf;
    /** EPF evaluated at the AVF interval endpoints — the error bar the
     *  fig3 bench renders (degenerate for ACE-only studies). */
    Interval epfCi;

    double aceWallSeconds = 0.0;

    /** Render a human-readable block to @p os. */
    void printSummary(std::ostream& os) const;
};

class ReliabilityFramework
{
  public:
    explicit ReliabilityFramework(GpuModel model);

    const GpuConfig& config() const { return config_; }

    /**
     * Full analysis of @p workload_name: golden run, FI campaigns on
     * every applicable structure, ACE analysis, and the FIT/EPF
     * roll-up.  The spec's workload/GPU grid is replaced by this one
     * (workload, GPU) cell (a structure restriction is honoured), and
     * store / resume / verbosity are cleared — a one-cell analysis is
     * not a checkpointable grid study.
     */
    ReliabilityReport analyze(std::string_view workload_name,
                              const StudySpec& spec) const;

    /** Full analysis under the default campaign (the paper's plan). */
    ReliabilityReport analyze(std::string_view workload_name) const;

    /** Build the workload instance this framework would analyze. */
    WorkloadInstance buildInstance(std::string_view workload_name,
                                   std::uint64_t workload_seed = 42) const;

  private:
    GpuModel model_;
    const GpuConfig& config_;
};

} // namespace gpr

#endif // GPR_CORE_FRAMEWORK_HH
