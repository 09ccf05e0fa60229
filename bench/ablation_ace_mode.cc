/**
 * @file
 * Ablation: ACE accounting modes.
 *
 * Standard ACE (write -> last read, offline knowledge) is what GUFI/SIFI
 * implement; Conservative ACE (write -> next write, no future knowledge)
 * is the classic hardware-feasible upper bound.  The gap between them —
 * and between each and FI — quantifies how much of the paper's reported
 * ACE overestimate is methodological slack.
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
    if (cli.rejectMetaActions("bench_ablation_ace_mode"))
        return 2;
    cli.printHeader(std::cout,
                    "Ablation - ACE accounting mode (GTX 480)");

    const GpuConfig& cfg = gpuConfig(GpuModel::GeforceGtx480);

    TextTable table({"benchmark", "structure", "AVF-FI", "ACE standard",
                     "ACE conservative"});

    // Default to a representative subset (the full set is available via
    // --workloads=...); matrixMul dominates runtime otherwise.
    std::vector<std::string> names = cli.spec.workloads;
    if (names.empty())
        names = {"vectoradd", "reduction", "scan", "kmeans", "histogram"};

    for (const std::string& name : names) {
        const auto workload = makeWorkload(name);
        const WorkloadInstance inst = workload->build(cfg.dialect, {});
        const AceResult standard =
            runAceAnalysis(cfg, inst, AceMode::Standard);
        const AceResult conservative =
            runAceAnalysis(cfg, inst, AceMode::Conservative);

        auto row = [&](TargetStructure s, const char* label) {
            double fi = 0.0;
            if (!cli.spec.aceOnly)
                fi = runCampaign(cfg, inst, s, cli.campaign()).avf();
            table.addRow(
                {name, label, strprintf("%.1f%%", 100.0 * fi),
                 strprintf("%.1f%%", 100.0 * standard.forStructure(s).avf()),
                 strprintf("%.1f%%",
                           100.0 * conservative.forStructure(s).avf())});
        };
        row(TargetStructure::VectorRegisterFile, "register file");
        if (workload->usesLocalMemory())
            row(TargetStructure::SharedMemory, "local memory");
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
