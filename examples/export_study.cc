/**
 * @file
 * Machine-readable study export: runs a study described by a StudySpec —
 * either a spec JSON artifact or a small default slice — and writes the
 * results as CSV and JSON next to the human-readable tables, the
 * hand-off point to external plotting.
 *
 *     $ export_study [spec.json | workload[,workload...]] [out_prefix]
 *
 * Writes <out_prefix>.csv, <out_prefix>.json and <out_prefix>.spec.json
 * (default "study"); the latter reproduces the run via
 * `gpr study --spec`.
 */

#include <fstream>
#include <iostream>
#include <string>

#include "common/logging.hh"
#include "common/string_utils.hh"
#include "core/export.hh"
#include "core/orchestrator.hh"

namespace {

int
run(int argc, char** argv)
{
    using namespace gpr;

    // A .json argument is a full spec artifact; anything else is
    // workload-list sugar for the common case.
    StudySpec spec;
    spec.workloads = {"vectoradd", "reduction"};
    spec.plan.injections = 100;
    if (argc > 1) {
        const std::string arg = argv[1];
        if (arg.size() > 5 && arg.substr(arg.size() - 5) == ".json")
            spec = StudySpec::fromJsonFile(arg);
        else
            spec.workloads = parseWorkloadList(arg);
    }
    const std::string prefix = argc > 2 ? argv[2] : "study";

    const StudyResult study = runStudy(spec);

    const std::string csv_path = prefix + ".csv";
    const std::string json_path = prefix + ".json";
    const std::string spec_path = prefix + ".spec.json";
    {
        std::ofstream csv(csv_path);
        writeStudyCsv(csv, study);
    }
    {
        std::ofstream json(json_path);
        writeStudyJson(json, study);
    }
    {
        std::ofstream spec_out(spec_path);
        spec.toJson(spec_out);
        spec_out << '\n';
    }

    study.figure1().render(std::cout);
    std::cout << "wrote " << csv_path << ", " << json_path << " and "
              << spec_path << " (" << study.reports.size()
              << " cells, spec " << spec.campaignHashHex() << ")\n";
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    return gpr::runToolMain(run, argc, argv);
}
