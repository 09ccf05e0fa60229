/**
 * @file
 * Extending the study beyond the paper's ten benchmarks: write a kernel
 * in the textual micro-ISA, assemble it, build a WorkloadInstance around
 * it by hand, and run the same FI + ACE analysis the built-in benchmarks
 * get.  The kernel here is SAXPY (y = a*x + y) with a bounds guard.
 */

#include <cmath>
#include <cstdio>
#include <iostream>

#include "arch/gpu_config.hh"
#include "common/random.hh"
#include "core/orchestrator.hh"
#include "isa/assembler.hh"
#include "isa/disassembler.hh"
#include "reliability/ace.hh"
#include "reliability/campaign.hh"
#include "workloads/workload.hh"

namespace {

constexpr std::uint32_t kN = 16384;
constexpr std::uint32_t kBlock = 128;
constexpr float kA = 2.5f;

const char* kSaxpySource = R"(
.kernel saxpy
.dialect cuda
# params: 0 = x base, 1 = y base, 2 = n
    S2R   V0, SR_TID_X
    S2R   V1, SR_CTAID_X
    S2R   V2, SR_NTID_X
    LDPARAM V3, 0
    LDPARAM V4, 1
    LDPARAM V5, 2
    IMAD  V6, V1, V2, V0        # gid
    ISETP.LT P0, V6, V5
    SHL   V7, V6, 2
    IADD  V8, V7, V3            # &x[gid]
    IADD  V9, V7, V4            # &y[gid]
@P0 LDG   V10, [V8]
@P0 LDG   V11, [V9]
@P0 FFMA  V12, V10, 2.5f, V11   # a*x + y
@P0 STG   [V9], V12
    EXIT
)";

} // namespace

int
main()
{
    using namespace gpr;

    // Assemble and echo the round-tripped listing.
    const Program program = assemble(kSaxpySource);
    std::printf("assembled '%s': %u instructions, %u vregs\n\n",
                program.name().c_str(), program.size(),
                program.numVRegs());
    std::cout << disassemble(program) << '\n';

    // Hand-build the instance: inputs, launch, golden.
    WorkloadInstance inst;
    inst.workloadName = "saxpy";
    inst.program = program;

    Rng rng(0x5A4B);
    Buffer x = inst.image.allocBuffer(kN);
    Buffer y = inst.image.allocBuffer(kN);
    ExpectedOutput out;
    out.label = "y";
    out.buffer = y;
    out.compare = CompareKind::FloatRelTol;
    out.tolerance = 1e-5f;
    out.golden.resize(kN);
    for (std::uint32_t i = 0; i < kN; ++i) {
        const float xv = rng.uniformF(-2.0f, 2.0f);
        const float yv = rng.uniformF(-2.0f, 2.0f);
        inst.image.setFloat(x, i, xv);
        inst.image.setFloat(y, i, yv);
        out.golden[i] = floatBits(std::fma(xv, kA, yv));
    }
    inst.outputs.push_back(std::move(out));

    inst.launch.blockX = kBlock;
    inst.launch.gridX = kN / kBlock;
    inst.launch.addParamAddr(x.byteAddr);
    inst.launch.addParamAddr(y.byteAddr);
    inst.launch.addParamInt(static_cast<std::int32_t>(kN));

    // Same analyses the built-in benchmarks get: the campaign's golden
    // run is also its ACE analysis.
    const GpuConfig& cfg = gpuConfig(GpuModel::GeforceGtx480);
    CampaignConfig cc;
    cc.plan.injections = 300;
    const CampaignResult fi =
        runCampaign(cfg, inst, TargetStructure::VectorRegisterFile, cc);
    const AceResult& ace = fi.ace;

    std::printf("saxpy on %s: cycles=%llu IPC=%.2f\n", cfg.name.c_str(),
                static_cast<unsigned long long>(ace.goldenStats.cycles),
                ace.goldenStats.ipc());
    const AceStructureResult& rf_ace =
        ace.forStructure(TargetStructure::VectorRegisterFile);
    std::printf("register file: AVF-FI=%.1f%% (+/-%.1f%%)  AVF-ACE=%.1f%%  "
                "occupancy=%.1f%%\n",
                100 * fi.avf(), 100 * fi.errorMargin(), 100 * rf_ace.avf(),
                100 * ace.goldenStats.avgRegFileOccupancy);
    return 0;
}
