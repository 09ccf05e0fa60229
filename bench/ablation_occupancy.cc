/**
 * @file
 * Ablation: the causal link between structure occupancy and AVF (the
 * paper's red-line correlation, Section III, and the "resource sizes /
 * resource occupancy" aspects of Section I).
 *
 * Two sweeps on a Fermi-class device running matrixMul:
 *  1. residency sweep — cap maxBlocksPerSm at 1/2/4/8: fewer resident
 *     blocks => lower occupancy => lower AVF;
 *  2. register-file size sweep — 8K/16K/32K/64K words per SM at fixed
 *     residency: a larger file dilutes the same live state => lower AVF
 *     (and more FIT-prone raw bits; the EPF bench shows the roll-up).
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

using namespace gpr;

void
sweep(const BenchCli& cli, const std::string& label,
      const std::vector<GpuConfig>& configs,
      const std::vector<std::string>& tags)
{
    TextTable table({label, "RF occupancy", "RF AVF-FI", "RF AVF-ACE",
                     "cycles"});
    const auto workload = makeWorkload("matrixMul");

    for (std::size_t i = 0; i < configs.size(); ++i) {
        const GpuConfig& cfg = configs[i];
        const WorkloadInstance inst = workload->build(cfg.dialect, {});
        const AceResult ace = runAceAnalysis(cfg, inst);
        const AceStructureResult& rf_ace =
            ace.forStructure(TargetStructure::VectorRegisterFile);

        double avf_fi = 0.0;
        if (!cli.spec.aceOnly) {
            CampaignConfig cc;
            cc.plan = cli.spec.plan;
            cc.seed = cli.spec.seed;
            const CampaignResult fi = runCampaign(
                cfg, inst, TargetStructure::VectorRegisterFile, cc);
            avf_fi = fi.avf();
        }

        table.addRow(
            {tags[i],
             strprintf("%.1f%%",
                       100.0 * ace.goldenStats.avgRegFileOccupancy),
             strprintf("%.1f%%", 100.0 * avf_fi),
             strprintf("%.1f%%", 100.0 * rf_ace.avf()),
             strprintf("%llu", static_cast<unsigned long long>(
                                   ace.goldenStats.cycles))});
    }
    table.render(std::cout);
}

int
run(int argc, char** argv)
{
    BenchCli cli;
    if (!cli.parse(argc, argv))
        return 1;
    if (cli.rejectMetaActions("bench_ablation_occupancy"))
        return 2;
    cli.printHeader(std::cout,
                    "Ablation - occupancy vs AVF (matrixMul on Fermi)");

    // Sweep 1: block residency cap.
    {
        std::vector<GpuConfig> configs;
        std::vector<std::string> tags;
        for (std::uint32_t blocks : {1u, 2u, 4u, 8u}) {
            GpuConfig cfg = gpuConfig(GpuModel::GeforceGtx480);
            cfg.maxBlocksPerSm = blocks;
            configs.push_back(cfg);
            tags.push_back(strprintf("%u blocks/SM", blocks));
        }
        std::cout << "-- residency sweep --\n";
        sweep(cli, "residency", configs, tags);
    }

    // Sweep 2: register-file size.
    {
        std::vector<GpuConfig> configs;
        std::vector<std::string> tags;
        for (std::uint32_t words : {8192u, 16384u, 32768u, 65536u}) {
            GpuConfig cfg = gpuConfig(GpuModel::GeforceGtx480);
            cfg.regFileWordsPerSm = words;
            configs.push_back(cfg);
            tags.push_back(strprintf("%u KB RF/SM", words * 4 / 1024));
        }
        std::cout << "-- register-file size sweep --\n";
        sweep(cli, "RF size", configs, tags);
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    return gpr::runToolMain(run, argc, argv);
}
