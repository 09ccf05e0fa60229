/**
 * @file
 * Ablation: effect of the warp scheduling policy on performance and on
 * register-file AVF (the paper lists "execution scheduling" among the
 * aspects its full-scale study covers).
 *
 * Runs each benchmark on a Fermi-class device under loose round-robin vs
 * greedy-then-oldest scheduling and reports cycles, IPC and AVF.
 */

#include <iostream>

#include "common/logging.hh"
#include "common/string_utils.hh"
#include "common/table.hh"
#include "core/bench_cli.hh"
#include "reliability/ace.hh"
#include "reliability/campaign.hh"
#include "workloads/workloads.hh"

namespace {

int
run(int argc, char** argv)
{
    using namespace gpr;

    BenchCli cli;
    if (!cli.parse(argc, argv))
        return 1;
    if (cli.rejectMetaActions("bench_ablation_scheduler"))
        return 2;
    cli.printHeader(std::cout,
                    "Ablation - warp scheduler (RR vs GTO on Fermi)");

    // Config copies with only the scheduler changed.
    GpuConfig rr = gpuConfig(GpuModel::GeforceGtx480);
    rr.scheduler = SchedulerKind::RoundRobin;
    GpuConfig gto = gpuConfig(GpuModel::GeforceGtx480);
    gto.scheduler = SchedulerKind::GreedyThenOldest;

    TextTable table({"benchmark", "scheduler", "cycles", "IPC", "RF AVF-FI",
                     "RF AVF-ACE"});

    // Default to a representative subset (the full set is available via
    // --workloads=...); matrixMul dominates runtime otherwise.
    std::vector<std::string> names = cli.spec.workloads;
    if (names.empty())
        names = {"vectoradd", "reduction", "scan", "kmeans", "histogram"};

    for (const std::string& name : names) {
        const auto workload = makeWorkload(name);
        for (const auto* cfg : {&rr, &gto}) {
            const WorkloadInstance inst =
                workload->build(cfg->dialect, {});
            const AceResult ace = runAceAnalysis(*cfg, inst);

            const AceStructureResult& rf_ace =
                ace.forStructure(TargetStructure::VectorRegisterFile);
            double avf_fi = 0.0;
            if (!cli.spec.aceOnly) {
                CampaignConfig cc;
                cc.plan = cli.spec.plan;
                cc.seed = cli.spec.seed;
                const CampaignResult fi = runCampaign(
                    *cfg, inst, TargetStructure::VectorRegisterFile, cc);
                avf_fi = fi.avf();
            }

            table.addRow(
                {name,
                 cfg->scheduler == SchedulerKind::RoundRobin ? "RR" : "GTO",
                 strprintf("%llu", static_cast<unsigned long long>(
                                       ace.goldenStats.cycles)),
                 strprintf("%.2f", ace.goldenStats.ipc()),
                 strprintf("%.1f%%", 100.0 * avf_fi),
                 strprintf("%.1f%%", 100.0 * rf_ace.avf())});
        }
    }
    table.render(std::cout);
    if (cli.csv)
        table.renderCsv(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    return gpr::runToolMain(run, argc, argv);
}
