/**
 * @file
 * Reproduces Fig. 1 of the paper: register-file AVF for all ten
 * benchmarks on all four GPUs, measured both by statistical fault
 * injection (AVF-FI) and by ACE analysis (AVF-ACE), with the occupancy
 * of the structure alongside (the figure's red line).
 *
 * Expected shape (paper findings):
 *  - AVF varies strongly across benchmarks and across GPUs;
 *  - AVF-ACE >= AVF-FI, with a significant overestimate for this
 *    structure;
 *  - occupancy correlates strongly with AVF.
 *
 * Run with --injections=2000 to match the paper's sampling plan exactly.
 */

#include <iostream>

#include "common/logging.hh"
#include "core/bench_cli.hh"
#include "core/export.hh"

namespace {

int
run(int argc, char** argv)
{
    gpr::BenchCli cli;
    if (!cli.parse(argc, argv))
        return 1;
    if (cli.runMetaActions(std::cout))
        return 0;

    if (!cli.json) {
        cli.printHeader(
            std::cout,
            "Fig. 1 - AVF for Register File (FI + ACE + occupancy)");
    }

    const gpr::StudyResult study = gpr::runStudy(cli.spec);
    if (cli.printStudyJson(std::cout, study))
        return 0;
    const gpr::TextTable table = study.figure1();
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
