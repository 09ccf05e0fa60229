/**
 * @file
 * Reproduces Fig. 2 of the paper: local (shared) memory AVF for the seven
 * benchmarks that use it — backprop, dwtHaar1D, histogram, matrixMul,
 * reduction, scan, transpose — on all four GPUs, by FI and by ACE, with
 * the structure occupancy alongside.
 *
 * Expected shape (paper findings):
 *  - no clean cross-GPU trend (case-by-case analysis needed);
 *  - AVF-ACE is very close to AVF-FI for this structure (unlike the
 *    register file), so ACE can replace long FI campaigns here;
 *  - occupancy correlates strongly with AVF.
 */

#include <iostream>

#include "common/logging.hh"
#include "core/bench_cli.hh"
#include "core/export.hh"
#include "workloads/workloads.hh"

namespace {

int
run(int argc, char** argv)
{
    gpr::BenchCli cli;
    if (!cli.parse(argc, argv))
        return 1;

    // Restrict to the Fig. 2 benchmark set unless overridden.
    if (cli.spec.workloads.empty()) {
        for (auto name : gpr::localMemoryWorkloadNames())
            cli.spec.workloads.emplace_back(name);
    }
    if (cli.runMetaActions(std::cout))
        return 0;

    if (!cli.json) {
        cli.printHeader(
            std::cout,
            "Fig. 2 - AVF for Local Memory (FI + ACE + occupancy)");
    }

    const gpr::StudyResult study = gpr::runStudy(cli.spec);
    if (cli.printStudyJson(std::cout, study))
        return 0;
    const gpr::TextTable table = study.figure2();
    table.render(std::cout);
    if (cli.csv)
        table.renderCsv(std::cout);
    study.printClaims(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    return gpr::runToolMain(run, argc, argv);
}
