/**
 * @file
 * Methodology trade-off study — the paper's Section I motivation: "the
 * delicate trade-off between analysis time and accuracy of the reported
 * measurements".
 *
 * Sweeps the FI sample size and shows the measured AVF converging (with
 * its shrinking confidence interval) next to the one-shot ACE number and
 * the wall-clock cost of each method.
 *
 *     $ ace_vs_fi [workload] [gpu]
 */

#include <iostream>
#include <vector>

#include "common/logging.hh"
#include "common/string_utils.hh"
#include "common/table.hh"
#include "core/framework.hh"
#include "core/orchestrator.hh"

namespace {

int
run(int argc, char** argv)
{
    using namespace gpr;

    const std::string workload = argc > 1 ? argv[1] : "reduction";
    const GpuModel gpu =
        argc > 2 ? gpuModelFromName(argv[2]) : GpuModel::QuadroFx5600;

    ReliabilityFramework framework(gpu);
    const WorkloadInstance inst = framework.buildInstance(workload);
    const GpuConfig& cfg = framework.config();

    // The sweep inherits the paper spec's campaign parameters (99 %
    // confidence) and only varies the sample size.
    const StudySpec paper = paperStudySpec();
    std::vector<CampaignResult> sweep;
    for (std::size_t n : {50u, 100u, 200u, 400u, 800u, 1600u}) {
        CampaignConfig cc;
        cc.plan = paper.plan;
        cc.plan.injections = n;
        cc.seed = paper.seed;
        sweep.push_back(runCampaign(
            cfg, inst, TargetStructure::VectorRegisterFile, cc));
    }

    // Every campaign's golden run is also an ACE analysis of the cell.
    const AceResult& ace = sweep.front().ace;
    std::cout << strprintf(
        "%s on %s: ACE analysis takes %.3f s (single instrumented run)\n"
        "  register-file AVF-ACE = %.2f%%\n\n",
        workload.c_str(), cfg.name.c_str(), ace.wallSeconds,
        100 * ace.forStructure(TargetStructure::VectorRegisterFile).avf());

    TextTable table({"injections", "AVF-FI", "Wilson 99% CI", "margin",
                     "worker-s", "cost vs ACE"});
    for (const CampaignResult& fi : sweep) {
        const Interval ci = fi.avfInterval();
        table.addRow(
            {strprintf("%zu", fi.injections),
             strprintf("%.2f%%", 100 * fi.avf()),
             strprintf("[%.1f%%, %.1f%%]", 100 * ci.lo, 100 * ci.hi),
             strprintf("+/-%.2f%%", 100 * fi.errorMargin()),
             strprintf("%.2f", fi.wallSeconds),
             strprintf("%.0fx work",
                       ace.wallSeconds > 0
                           ? fi.wallSeconds / ace.wallSeconds
                           : 0.0)});
    }
    table.render(std::cout);
    std::cout << "takeaway: for the register file the FI estimate "
                 "converges well below the ACE value\n(conservative "
                 "overestimate); for local memory the two agree — see "
                 "bench/fig2.\n";
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    return gpr::runToolMain(run, argc, argv);
}
