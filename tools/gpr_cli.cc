/**
 * @file
 * gpr — the command-line front end of the library.
 *
 *   gpr list                         benchmarks and GPU models
 *   gpr info <gpu>                   device configuration dump
 *   gpr disasm <workload> <gpu>      kernel listing as lowered per vendor
 *   gpr run <workload> <gpu>         golden run: perf + occupancy stats
 *   gpr profile <workload> <gpu>     access-traffic profile per structure
 *   gpr analyze <workload> <gpu> [n] full FI + ACE + EPF report
 *   gpr inject <workload> <gpu> <structure> <bit> <cycle>
 *              [behavior] [pattern]  single deterministic injection
 *   gpr study [flags]                sharded grid study with
 *                                    checkpoint/resume (see --help)
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "common/logging.hh"
#include "common/string_utils.hh"
#include "core/bench_cli.hh"
#include "core/export.hh"
#include "core/framework.hh"
#include "core/orchestrator.hh"
#include "isa/disassembler.hh"
#include "reliability/access_profile.hh"
#include "reliability/fault_injector.hh"
#include "sim/gpu.hh"
#include "sim/structure_registry.hh"
#include "workloads/workloads.hh"

namespace {

using namespace gpr;

int
usage()
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  gpr list\n"
        "  gpr info <gpu>\n"
        "  gpr disasm <workload> <gpu>\n"
        "  gpr run <workload> <gpu>\n"
        "  gpr profile <workload> <gpu>\n"
        "  gpr analyze <workload> <gpu> [injections] [--json]\n"
        "  gpr inject <workload> <gpu> <structure> <bit> <cycle>\n"
        "             [behavior] [pattern]\n"
        "             (behavior: transient, stuck-at-0, stuck-at-1,\n"
        "              intermittent [fixed period 16, active 8];\n"
        "              pattern: single, adjacent-double, adjacent-quad)\n"
        "  gpr study [--spec=FILE] [--dump-spec] [--dry-run]\n"
        "            [--workloads=a,b] [--gpus=a,b] [--injections=N]\n"
        "            [--margin=M] [--confidence=C] [--max-injections=N]\n"
        "            [--structures=a,b] [--jobs=N] [--shards=N]\n"
        "            [--checkpoints=N] [--store=FILE] [--resume[=FILE]]\n"
        "            [--ace-only] [--json] [--csv]\n"
        "            (--margin > 0: adaptive stopping — inject until\n"
        "             every rate's CI half-width <= M)\n"
        "gpus: 7970, fx5600, fx5800, gtx480\n"
        "structures (canonical or short name):\n");
    for (const StructureSpec& spec : structureRegistry()) {
        std::fprintf(stderr, "  %-22s %s\n",
                     std::string(spec.name).c_str(),
                     std::string(spec.shortName).c_str());
    }
    return 2;
}

int
cmdList()
{
    std::printf("benchmarks:\n");
    for (auto name : allWorkloadNames()) {
        const auto wl = makeWorkload(name);
        std::printf("  %-10s %s\n", std::string(name).c_str(),
                    wl->usesLocalMemory() ? "(uses local memory)" : "");
    }
    std::printf("gpus:\n");
    for (GpuModel m : allGpuModels()) {
        const GpuConfig& c = gpuConfig(m);
        std::printf("  %-16s %s\n", c.name.c_str(),
                    c.microarchitecture.c_str());
    }
    return 0;
}

int
cmdInfo(const std::string& gpu)
{
    const GpuConfig& c = gpuConfig(gpuModelFromName(gpu));
    std::printf("%s (%s, %s dialect)\n", c.name.c_str(),
                c.microarchitecture.c_str(),
                std::string(dialectName(c.dialect)).c_str());
    std::printf("  SMs/CUs:            %u\n", c.numSms);
    std::printf("  warp width:         %u\n", c.warpWidth);
    std::printf("  warps/SM:           %u\n", c.maxWarpsPerSm);
    std::printf("  blocks/SM:          %u\n", c.maxBlocksPerSm);
    std::printf("  register file/SM:   %u words (%u KB), chip total %.1f "
                "Mbit\n",
                c.regFileWordsPerSm, c.regFileWordsPerSm * 4 / 1024,
                static_cast<double>(c.totalRegFileBits()) / (1 << 20));
    if (c.scalarRegWordsPerSm) {
        std::printf("  scalar RF/CU:       %u words\n",
                    c.scalarRegWordsPerSm);
    }
    std::printf("  local memory/SM:    %u KB, chip total %.1f Mbit\n",
                c.smemBytesPerSm / 1024,
                static_cast<double>(c.totalSmemBits()) / (1 << 20));
    std::printf("  fault targets (registry):\n");
    for (const StructureSpec& spec : structureRegistry()) {
        const std::uint64_t bits = structureBitsTotal(c, spec.id);
        if (bits == 0)
            continue;
        const char* kind = "word storage";
        const char* windows = "exact dead windows";
        if (spec.kind == StructureKind::CacheArray) {
            kind = spec.scope == StructureScope::Chip ? "cache, shared"
                                                      : "cache, per-SM";
            windows = "exact dead windows on data words";
        } else if (spec.id == TargetStructure::PredicateFile) {
            kind = "control bits";
            windows = "exact dead windows per predicate register";
        } else if (spec.id == TargetStructure::SimtStack) {
            kind = "control bits";
            windows = "exact dead windows per PC/mask unit and stack entry";
        }
        std::printf("    %-20s %10llu bits chip-wide (%s, %s)\n",
                    std::string(spec.name).c_str(),
                    static_cast<unsigned long long>(bits), kind, windows);
    }
    std::printf("  shader clock:       %.0f MHz\n", c.clockMhz);
    std::printf("  scheduler:          %s\n",
                c.scheduler == SchedulerKind::RoundRobin
                    ? "round-robin"
                    : "greedy-then-oldest");
    return 0;
}

int
cmdDisasm(const std::string& workload, const std::string& gpu)
{
    ReliabilityFramework fw(gpuModelFromName(gpu));
    const WorkloadInstance inst = fw.buildInstance(workload);
    std::cout << disassemble(inst.program);
    std::printf("# %u instructions, %u vregs, %u sregs, %u smem bytes\n",
                inst.program.size(), inst.program.numVRegs(),
                inst.program.numSRegs(), inst.program.smemBytes());
    std::printf("# launch: grid %ux%u, block %ux%u\n", inst.launch.gridX,
                inst.launch.gridY, inst.launch.blockX, inst.launch.blockY);
    return 0;
}

int
cmdRun(const std::string& workload, const std::string& gpu)
{
    const GpuConfig& cfg = gpuConfig(gpuModelFromName(gpu));
    ReliabilityFramework fw(cfg.model);
    const WorkloadInstance inst = fw.buildInstance(workload);
    Gpu dev(cfg);
    const RunResult r = dev.run(inst.program, inst.launch, inst.image);
    std::string why;
    const bool ok = r.clean() && verifyOutputs(inst, r.memory, &why);

    std::printf("%s on %s: %s\n", workload.c_str(), cfg.name.c_str(),
                ok ? "PASS" : ("FAIL " + why).c_str());
    std::printf("  cycles:            %llu (%.3e s @ %.0f MHz)\n",
                static_cast<unsigned long long>(r.stats.cycles),
                executionSeconds(cfg, r.stats.cycles), cfg.clockMhz);
    std::printf("  warp instructions: %llu (IPC %.2f)\n",
                static_cast<unsigned long long>(r.stats.warpInstructions),
                r.stats.ipc());
    std::printf("  global txns:       %llu   shared accesses: %llu "
                "(+%llu conflict replays)\n",
                static_cast<unsigned long long>(r.stats.globalTransactions),
                static_cast<unsigned long long>(r.stats.sharedAccesses),
                static_cast<unsigned long long>(
                    r.stats.sharedBankConflictReplays));
    std::printf("  occupancy:         RF %.1f%%  LDS %.1f%%  warps %.1f%%\n",
                100 * r.stats.avgRegFileOccupancy,
                100 * r.stats.avgSmemOccupancy,
                100 * r.stats.avgWarpOccupancy);
    std::printf("  divergence events: %llu   barriers: %llu\n",
                static_cast<unsigned long long>(r.stats.divergenceEvents),
                static_cast<unsigned long long>(r.stats.barriersExecuted));
    return ok ? 0 : 1;
}

int
cmdProfile(const std::string& workload, const std::string& gpu)
{
    const GpuConfig& cfg = gpuConfig(gpuModelFromName(gpu));
    ReliabilityFramework fw(cfg.model);
    const WorkloadInstance inst = fw.buildInstance(workload);
    const AccessProfileResult p = profileAccesses(cfg, inst);

    std::printf("%s on %s:\n", workload.c_str(), cfg.name.c_str());
    for (const StructureSpec& spec : structureRegistry()) {
        const AccessSummary& s = p.forStructure(spec.id);
        if (s.totalWords == 0)
            continue;
        std::printf("  %-20s touched %8llu/%llu units (%.2f%%)  reads "
                    "%9llu  writes %8llu  r/w %.2f  top10%% share %.0f%%\n",
                    std::string(spec.name).c_str(),
                    static_cast<unsigned long long>(s.touchedWords),
                    static_cast<unsigned long long>(s.totalWords),
                    100 * s.touchedFraction(),
                    static_cast<unsigned long long>(s.reads),
                    static_cast<unsigned long long>(s.writes),
                    s.readsPerWrite(), 100 * s.top10Share);
    }
    return 0;
}

int
cmdAnalyze(const std::string& workload, const std::string& gpu,
           const char* n_arg, bool json)
{
    ReliabilityFramework fw(gpuModelFromName(gpu));
    StudySpec spec;
    spec.plan.injections =
        n_arg ? parseInjectionCount("analyze", n_arg) : 400;
    const ReliabilityReport report = fw.analyze(workload, spec);
    if (json) {
        writeReportJson(std::cout, report);
        std::cout << '\n';
    } else {
        report.printSummary(std::cout);
    }
    return 0;
}

int
cmdStudy(int argc, char** argv)
{
    BenchCli cli;
    if (!cli.parse(argc, argv))
        return 2;
    if (cli.runMetaActions(std::cout))
        return 0;

    StudyProgress progress;
    const StudyResult study = runStudy(cli.spec, &progress);

    if (!cli.printStudyJson(std::cout, study)) {
        std::printf("== Fig. 1: register-file AVF ==\n");
        study.figure1().render(std::cout);
        std::printf("\n== Fig. 2: local-memory AVF ==\n");
        study.figure2().render(std::cout);
        std::printf("\n== Fig. 3: EPF ==\n");
        study.figure3().render(std::cout);
        std::printf("\n");
        study.printClaims(std::cout);
        if (cli.csv) {
            std::printf("\n");
            writeStudyCsv(std::cout, study);
        }
    }

    std::fprintf(stderr,
                 "study: %zu cells, %zu/%zu shards executed "
                 "(%zu resumed from store, %zu pruned by early "
                 "stopping), %.2f s wall, %.2f worker-s injecting\n",
                 progress.cells, progress.executedShards,
                 progress.totalShards, progress.resumedShards,
                 progress.prunedShards, progress.wallSeconds,
                 progress.shardBusySeconds);
    std::fprintf(stderr,
                 "study: %llu injections at %.1f/s wall "
                 "(%.1f/worker-s, %zu checkpoint packs built in "
                 "%.2f worker-s, at most %zu alive at once)\n",
                 static_cast<unsigned long long>(
                     progress.injectionsExecuted),
                 progress.injectionsPerSecond(),
                 progress.shardBusySeconds > 0
                     ? static_cast<double>(progress.injectionsExecuted) /
                           progress.shardBusySeconds
                     : 0.0,
                 progress.checkpointPacks, progress.packBuildSeconds,
                 progress.peakLivePacks);
    return 0;
}

int
cmdInject(const std::string& workload, const std::string& gpu,
          const std::string& structure, const char* bit_arg,
          const char* cycle_arg, const char* behavior_arg,
          const char* pattern_arg)
{
    const GpuConfig& cfg = gpuConfig(gpuModelFromName(gpu));
    ReliabilityFramework fw(cfg.model);
    const WorkloadInstance inst = fw.buildInstance(workload);

    FaultSpec fault;
    if (!tryTargetStructureFromName(structure, fault.structure))
        return usage();

    const auto bit = parseInt(bit_arg);
    const auto cyc = parseInt(cycle_arg);
    if (!bit || !cyc || *bit < 0 || *cyc < 0)
        return usage();
    fault.bitIndex = static_cast<BitIndex>(*bit);
    fault.cycle = static_cast<Cycle>(*cyc);

    if (behavior_arg &&
        !tryFaultBehaviorFromName(behavior_arg, fault.behavior))
        return usage();
    if (pattern_arg &&
        !tryFaultPatternFromName(pattern_arg, fault.pattern))
        return usage();
    if (fault.behavior == FaultBehavior::Intermittent) {
        // No duty-cycle flags on the CLI: fix a deterministic cycle so
        // the same command line always reproduces the same run.
        fault.intermittentPeriod = 16;
        fault.intermittentActive = 8;
        fault.intermittentValue = true;
    }

    // An out-of-range fault is a user error, refused here: the
    // simulator's bounds assertions guard internal invariants.
    const std::uint64_t bits = structureBitsTotal(cfg, fault.structure);
    if (fault.bitIndex >= bits) {
        fatal("inject: bit ", fault.bitIndex, " is out of range: ",
              targetStructureName(fault.structure), " on ", cfg.name,
              " has ", bits, " bits");
    }
    FaultInjector injector(cfg, inst);
    const Cycle golden = injector.goldenCycles();
    if (fault.cycle >= golden) {
        fatal("inject: cycle ", fault.cycle,
              " is past the end of the golden run (", golden, " cycles)");
    }
    std::printf("golden run: %llu cycles\n",
                static_cast<unsigned long long>(golden));
    const InjectionResult r = injector.inject(fault);
    std::printf("fault: %s bit %llu @ cycle %llu (%s x %s) -> %s%s%s\n",
                std::string(targetStructureName(fault.structure)).c_str(),
                static_cast<unsigned long long>(fault.bitIndex),
                static_cast<unsigned long long>(fault.cycle),
                std::string(faultBehaviorName(fault.behavior)).c_str(),
                std::string(faultPatternName(fault.pattern)).c_str(),
                std::string(faultOutcomeName(r.outcome)).c_str(),
                r.trap != TrapKind::None ? " / " : "",
                r.trap != TrapKind::None
                    ? std::string(trapKindName(r.trap)).c_str()
                    : "");
    return 0;
}

int
run(int argc, char** argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    if (cmd == "list")
        return cmdList();
    if (cmd == "info" && argc == 3)
        return cmdInfo(argv[2]);
    if (cmd == "disasm" && argc == 4)
        return cmdDisasm(argv[2], argv[3]);
    if (cmd == "run" && argc == 4)
        return cmdRun(argv[2], argv[3]);
    if (cmd == "profile" && argc == 4)
        return cmdProfile(argv[2], argv[3]);
    if (cmd == "analyze" && argc >= 4) {
        bool json = false;
        const char* n_arg = nullptr;
        for (int i = 4; i < argc; ++i) {
            if (std::string(argv[i]) == "--json")
                json = true;
            else
                n_arg = argv[i];
        }
        return cmdAnalyze(argv[2], argv[3], n_arg, json);
    }
    if (cmd == "inject" && argc >= 7 && argc <= 9) {
        return cmdInject(argv[2], argv[3], argv[4], argv[5], argv[6],
                         argc > 7 ? argv[7] : nullptr,
                         argc > 8 ? argv[8] : nullptr);
    }
    if (cmd == "study")
        return cmdStudy(argc - 1, argv + 1);
    return usage();
}

} // namespace

int
main(int argc, char** argv)
{
    return gpr::runToolMain(run, argc, argv);
}
