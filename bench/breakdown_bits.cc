/**
 * @file
 * Vulnerability breakdown bench: where in the word and when in the run do
 * non-masked faults land?
 *
 * Supports the paper's discussion of *why* the two assessment methods
 * disagree on the register file: for float kernels the FI outcomes are
 * strongly bit-position dependent (low mantissa bits masked by the output
 * tolerance, exponent/sign bits not), while conservative ACE treats all
 * 32 bits of a live word alike.
 */

#include <iostream>

#include "common/logging.hh"
#include "common/string_utils.hh"
#include "common/table.hh"
#include "core/bench_cli.hh"
#include "reliability/breakdown.hh"
#include "workloads/workloads.hh"

namespace {

int
run(int argc, char** argv)
{
    using namespace gpr;

    BenchCli cli;
    if (!cli.parse(argc, argv))
        return 1;
    if (cli.rejectMetaActions("bench_breakdown_bits"))
        return 2;
    cli.printHeader(std::cout,
                    "Breakdown - AVF by bit position and run phase");

    const GpuConfig& cfg = gpuConfig(GpuModel::GeforceGtx480);
    std::vector<std::string> names = cli.spec.workloads;
    if (names.empty())
        names = {"matrixMul", "scan"}; // one float, one integer kernel

    for (const std::string& name : names) {
        const auto workload = makeWorkload(name);
        const WorkloadInstance inst = workload->build(cfg.dialect, {});
        CampaignConfig cc = cli.campaign();
        // Breakdown needs more samples per bucket than a plain AVF.
        cc.plan.injections = std::max<std::size_t>(cc.plan.injections * 4,
                                                   600);
        const VulnerabilityBreakdown bd = runBreakdownCampaign(
            cfg, inst, TargetStructure::VectorRegisterFile, cc);

        std::cout << strprintf(
            "\n%s on %s, register file, %u injections, AVF %.1f%%\n",
            name.c_str(), cfg.name.c_str(), bd.overall.total(),
            100.0 * bd.overall.avf());

        TextTable bits({"bit group", "injections", "masked", "SDC", "DUE",
                        "AVF"});
        const struct
        {
            const char* label;
            unsigned lo, hi;
        } groups[] = {
            {"bits 0-7   (low mantissa)", 0, 7},
            {"bits 8-15", 8, 15},
            {"bits 16-22 (high mantissa)", 16, 22},
            {"bits 23-30 (exponent)", 23, 30},
            {"bit  31    (sign)", 31, 31},
        };
        for (const auto& g : groups) {
            OutcomeBucket agg;
            for (unsigned b = g.lo; b <= g.hi; ++b) {
                agg.masked += bd.byBit[b].masked;
                agg.sdc += bd.byBit[b].sdc;
                agg.due += bd.byBit[b].due;
            }
            bits.addRow({g.label, strprintf("%u", agg.total()),
                         strprintf("%u", agg.masked),
                         strprintf("%u", agg.sdc),
                         strprintf("%u", agg.due),
                         strprintf("%.1f%%", 100.0 * agg.avf())});
        }
        bits.render(std::cout);

        TextTable phases({"run phase", "injections", "AVF"});
        for (std::size_t q = 0; q < kTimeBuckets; ++q) {
            phases.addRow(
                {strprintf("%zu0%%-%zu0%%", q, q + 1),
                 strprintf("%u", bd.byTime[q].total()),
                 strprintf("%.1f%%", 100.0 * bd.byTime[q].avf())});
        }
        phases.render(std::cout);
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    return gpr::runToolMain(run, argc, argv);
}
