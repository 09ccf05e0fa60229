/**
 * @file
 * Reproduces Fig. 3 of the paper: Executions-per-Failure (EPF = EIT /
 * FIT_GPU, log scale) for every benchmark x GPU pair, combining the
 * performance of the chip (clock x cycles => executions in 1e9 hours)
 * with its reliability (structure sizes x AVF => failures in 1e9 hours).
 *
 * Expected shape: EPF spans roughly 1e12..1e16 across the grid, with
 * larger/faster-but-bigger-structure chips trading throughput against
 * failure rate differently per benchmark.
 *
 * By default the AVFs feeding FIT come from ACE analysis (deterministic
 * and fast); pass --injections=N (without --ace-only) to use statistical
 * FI AVFs like the paper.
 */

#include <cstring>
#include <iostream>

#include "common/logging.hh"
#include "core/bench_cli.hh"
#include "core/export.hh"

namespace {

int
run(int argc, char** argv)
{
    gpr::BenchCli cli;
    // ACE-based unless the user explicitly chooses a campaign — either
    // an injection count or a full spec artifact (whose campaign section
    // must be honoured verbatim, ace_only included).
    bool campaign_given = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--injections=", 13) == 0 ||
            std::strncmp(argv[i], "--spec=", 7) == 0) {
            campaign_given = true;
        }
    }
    if (!cli.parse(argc, argv))
        return 1;
    if (!campaign_given)
        cli.spec.aceOnly = true;
    if (cli.runMetaActions(std::cout))
        return 0;

    if (!cli.json) {
        cli.printHeader(std::cout, "Fig. 3 - Executions per Failure (EPF)");
        std::cout << "FIT model: 1000 FIT/Mbit intrinsic SER; structures: "
                     "vector RF + local memory (+ scalar RF on SI)\n";
    }

    const gpr::StudyResult study = gpr::runStudy(cli.spec);
    if (cli.printStudyJson(std::cout, study))
        return 0;
    const gpr::TextTable table = study.figure3();
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
