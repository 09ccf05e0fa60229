/**
 * @file
 * Cross-architecture comparison for a single benchmark — the paper's core
 * scenario in miniature: the same kernel source, lowered to the CUDA
 * dialect for the three NVIDIA chips and to the Southern Islands dialect
 * for the AMD chip, analysed on all four.
 *
 *     $ compare_gpus [workload] [injections]
 */

#include <iostream>

#include "common/logging.hh"
#include "common/string_utils.hh"
#include "common/table.hh"
#include "core/bench_cli.hh"
#include "core/orchestrator.hh"

namespace {

int
run(int argc, char** argv)
{
    using namespace gpr;

    const std::string workload = argc > 1 ? argv[1] : "matrixMul";
    const std::size_t injections =
        argc > 2 ? parseInjectionCount("compare_gpus", argv[2]) : 200;

    TextTable table({"GPU", "uarch", "cycles", "exec (s)", "RF AVF-FI",
                     "RF AVF-ACE", "RF occ", "LM AVF-FI", "EPF"});

    // One spec describes the whole cross-GPU slice; the orchestrator
    // fans its campaigns out on one worker pool.
    StudySpec spec;
    spec.workloads = {workload};
    spec.plan.injections = injections;
    spec.verbose = false;
    const StudyResult study = runStudy(spec);

    for (const ReliabilityReport& r : study.reports) {
        const StructureReport& rf =
            r.forStructure(TargetStructure::VectorRegisterFile);
        const StructureReport& lm =
            r.forStructure(TargetStructure::SharedMemory);
        table.addRow({r.gpuName,
                      gpuConfig(r.gpu).microarchitecture,
                      strprintf("%llu",
                                static_cast<unsigned long long>(r.cycles)),
                      sciNotation(r.execSeconds),
                      strprintf("%.1f%%", 100 * rf.avfFi),
                      strprintf("%.1f%%", 100 * rf.avfAce),
                      strprintf("%.1f%%", 100 * rf.occupancy),
                      lm.applicable
                          ? strprintf("%.1f%%", 100 * lm.avfFi)
                          : std::string("n/a"),
                      sciNotation(r.epf.epf())});
    }

    std::cout << "benchmark: " << workload << " (" << injections
              << " injections/structure)\n";
    table.render(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    return gpr::runToolMain(run, argc, argv);
}
