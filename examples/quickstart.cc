/**
 * @file
 * Quickstart: analyze one benchmark on one GPU and print every metric the
 * study reports — AVF by fault injection and by ACE analysis, structure
 * occupancy, performance, FIT and EPF.
 *
 *     $ quickstart [workload] [gpu] [injections]
 *     $ quickstart vectoradd gtx480 500
 */

#include <cstdio>
#include <iostream>

#include "common/logging.hh"
#include "core/bench_cli.hh"
#include "core/framework.hh"

namespace {

int
run(int argc, char** argv)
{
    using namespace gpr;

    const std::string workload = argc > 1 ? argv[1] : "vectoradd";
    const GpuModel gpu =
        argc > 2 ? gpuModelFromName(argv[2]) : GpuModel::GeforceGtx480;

    // One declarative spec describes the whole experiment; the same
    // value serialises to JSON for `gpr study --spec` (see
    // examples/specs/smoke.json).
    StudySpec spec;
    spec.plan.injections =
        argc > 3 ? parseInjectionCount("quickstart", argv[3]) : 400;

    std::printf("analyzing '%s' with %zu injections per structure "
                "(+/-%.1f%% at %.0f%% confidence)...\n",
                workload.c_str(), spec.plan.injections,
                100.0 * spec.plan.errorMargin(),
                100.0 * spec.plan.confidence);

    ReliabilityFramework framework(gpu);
    const ReliabilityReport report = framework.analyze(workload, spec);
    report.printSummary(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    return gpr::runToolMain(run, argc, argv);
}
