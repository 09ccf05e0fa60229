/**
 * @file
 * Protection what-if explorer — the decision-making scenario the paper's
 * conclusions motivate: "architects can quantify the effectiveness of a
 * hardware based error protection technique ... along with a performance
 * cost.  Larger EPF numbers show a larger number of executions between
 * failures."
 *
 * Measures a benchmark's SDC/DUE rates per structure, then applies
 * parity / ECC-SECDED to the register file and local memory and reports
 * the new FIT and EPF next to the performance tax.
 *
 *     $ protection_explorer [workload] [gpu] [injections]
 */

#include <iostream>

#include "common/logging.hh"
#include "common/string_utils.hh"
#include "common/table.hh"
#include "core/bench_cli.hh"
#include "core/framework.hh"
#include "reliability/protection.hh"

namespace {

int
run(int argc, char** argv)
{
    using namespace gpr;

    const std::string workload = argc > 1 ? argv[1] : "matrixMul";
    const GpuModel gpu =
        argc > 2 ? gpuModelFromName(argv[2]) : GpuModel::GeforceGtx480;
    const std::size_t injections =
        argc > 3 ? parseInjectionCount("protection_explorer", argv[3])
                 : 300;

    ReliabilityFramework framework(gpu);
    const StudySpec spec =
        StudySpecBuilder().injections(injections).build();
    const ReliabilityReport base = framework.analyze(workload, spec);

    std::cout << "baseline:\n";
    base.printSummary(std::cout);
    std::cout << '\n';

    const GpuConfig& cfg = framework.config();
    TextTable table({"scheme", "RF AVF", "LM AVF", "FIT_GPU", "exec (s)",
                     "EPF", "EPF gain"});

    const StructureReport& base_rf =
        base.forStructure(TargetStructure::VectorRegisterFile);
    const StructureReport& base_lm =
        base.forStructure(TargetStructure::SharedMemory);
    const StructureReport& base_srf =
        base.forStructure(TargetStructure::ScalarRegisterFile);

    const double base_epf = base.epf.epf();
    for (const ProtectionScheme& scheme : builtinProtectionSchemes()) {
        // Protect both studied structures with the same scheme.
        const ProtectedRates rf =
            applyProtection(scheme, base_rf.sdcRate, base_rf.dueRate);
        const ProtectedRates lm =
            base_lm.applicable
                ? applyProtection(scheme, base_lm.sdcRate, base_lm.dueRate)
                : ProtectedRates{};
        const ProtectedRates srf =
            base_srf.applicable
                ? applyProtection(scheme, base_srf.sdcRate,
                                  base_srf.dueRate)
                : ProtectedRates{};

        const auto slowdown_cycles = static_cast<Cycle>(
            static_cast<double>(base.cycles) * (1.0 + scheme.perfOverhead));
        const EpfResult epf =
            computeEpf(cfg, slowdown_cycles, rf.avf(), lm.avf(), srf.avf());

        table.addRow(
            {scheme.name, strprintf("%.2f%%", 100 * rf.avf()),
             base_lm.applicable
                 ? strprintf("%.2f%%", 100 * lm.avf())
                 : std::string("n/a"),
             strprintf("%.2f", epf.fitTotal()), sciNotation(epf.execSeconds),
             epf.fitTotal() > 0 ? sciNotation(epf.epf())
                                : std::string("inf"),
             epf.fitTotal() > 0 && base_epf > 0
                 ? strprintf("%.1fx", epf.epf() / base_epf)
                 : std::string("inf")});
    }
    table.render(std::cout);
    std::cout << "note: EPF gain trades against the per-scheme execution "
                 "overhead (parity 1%, ECC 3%).\n";
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    return gpr::runToolMain(run, argc, argv);
}
