/**
 * @file
 * Injection-throughput benchmark: legacy from-scratch engine vs the
 * checkpoint-restore engine with its prefilters, over the paper's
 * (workload, GPU, structure) grid.
 *
 * Every cell runs the *same* deterministically derived fault list
 * through both engines, so the run doubles as a differential check:
 * any per-injection outcome mismatch flags the cell (and fails the
 * process).  Results are emitted as one BENCH JSON document on stdout
 * (CI parses it and fails if the checkpointed engine is slower); a
 * human-readable per-phase table goes to stderr so stdout stays pure
 * JSON.
 *
 *     $ bench_injection_throughput [--workloads=a,b] [--gpus=a,b]
 *           [--structures=a,b] [--behaviors=a,b] [--injections=N]
 *           [--checkpoints=N] [--seed=S]
 *
 * --injections takes a positive integer, --checkpoints and --seed
 * non-negative ones that fit their type; anything else exits 2 with an
 * error message.
 *
 * By default every registered structure applicable to a cell is run;
 * --structures restricts to a registry subset, e.g. the paper's
 * original rf,lds,srf grid for the CI perf gate.  Each cell's pack
 * records windows for the structures it runs, and no others.
 *
 * --behaviors selects the fault-behavior axis (default: all four, so
 * the persistent fast path is exercised out of the box).  Each behavior
 * re-runs every cell's fault list; transient cells use the dead-window
 * prefilter, persistent cells the value-residency prefilter.
 * Throughput is reported per behavior in the "behaviors" breakdown —
 * together with each prefilter's hit rate — and the legacy-vs-checkpoint
 * equality check doubles as a per-behavior differential test of the
 * fast path.
 *
 * The checkpointed engine's time is further broken down per phase
 * (prefilter / restore / replay, from FaultInjector's phase
 * accounting), and each (workload, GPU) pair reports its resident
 * checkpoint-pack bytes: the delta-encoded size next to what the same
 * checkpoint cycles would cost as full snapshots.
 */

// gpr:lint-allow-file(D1): timing whitelist — this is a throughput
// benchmark; clock reads are its output, and the differential outcome
// check compares counts that never depend on them.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/string_utils.hh"
#include "core/bench_cli.hh"
#include "core/study_spec.hh"
#include "reliability/campaign.hh"
#include "reliability/fault_injector.hh"
#include "sim/structure_registry.hh"
#include "workloads/workloads.hh"

namespace {

using namespace gpr;

double
seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

struct CellResult
{
    std::string workload;
    std::string gpu;
    std::string structure;
    FaultBehavior behavior = FaultBehavior::Transient;
    std::size_t injections = 0;
    std::size_t prefiltered = 0; ///< masked via dead windows (no sim)
    /** Masked via the persistent value-residency prefilter (no sim). */
    std::size_t residencyPrefiltered = 0;
    double goldenSeconds = 0.0; ///< one golden run (scale reference)
    double packSeconds = 0.0;   ///< recording passes + pack assembly
    double packShare = 0.0;     ///< this cell's share of packSeconds
    double legacySeconds = 0.0;
    double checkpointSeconds = 0.0;
    /** Where checkpointSeconds went (per-injector phase accounting). */
    InjectionPhaseStats phases;
    std::size_t packBytes = 0;     ///< resident delta-encoded pack
    std::size_t packFullBytes = 0; ///< same cycles as full snapshots
    bool outcomesEqual = true;
};

int
run(int argc, char** argv)
{
    std::vector<std::string> workloads;
    for (auto name : allWorkloadNames())
        workloads.emplace_back(name);
    std::vector<GpuModel> gpus = allGpuModels();
    std::vector<TargetStructure> requested;
    std::vector<FaultBehavior> behaviors = allFaultBehaviors();
    std::size_t injections = 40;
    unsigned checkpoints = kDefaultCheckpoints;
    std::uint64_t seed = 0xC0FFEE;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (startsWith(arg, "--workloads=")) {
            workloads = parseWorkloadList(
                arg.substr(std::string("--workloads=").size()));
        } else if (startsWith(arg, "--gpus=")) {
            gpus = parseGpuList(
                arg.substr(std::string("--gpus=").size()));
        } else if (startsWith(arg, "--structures=")) {
            requested = parseStructureList(
                arg.substr(std::string("--structures=").size()));
        } else if (startsWith(arg, "--behaviors=")) {
            behaviors.clear();
            for (const std::string& name : split(
                     arg.substr(std::string("--behaviors=").size()), ',')) {
                behaviors.push_back(faultBehaviorFromName(name));
            }
            if (behaviors.empty()) {
                std::fprintf(stderr, "--behaviors: empty list\n");
                return 2;
            }
        } else if (startsWith(arg, "--injections=")) {
            injections = intFlag<std::size_t>(arg, "--injections");
            if (injections == 0)
                fatal("--injections must be positive, got '0'");
        } else if (startsWith(arg, "--checkpoints=")) {
            checkpoints = intFlag<unsigned>(arg, "--checkpoints");
        } else if (startsWith(arg, "--seed=")) {
            seed = intFlag<std::uint64_t>(arg, "--seed");
        } else {
            std::fprintf(stderr,
                         "usage: bench_injection_throughput "
                         "[--workloads=a,b] [--gpus=a,b] "
                         "[--structures=a,b] [--behaviors=a,b] "
                         "[--injections=N] [--checkpoints=N] "
                         "[--seed=S]\n");
            return 2;
        }
    }

    std::vector<CellResult> cells;
    bool all_equal = true;
    double legacy_total = 0.0, ckpt_total = 0.0;
    std::size_t injections_total = 0;
    std::size_t peak_pack_bytes = 0, peak_pack_full_bytes = 0;

    for (const std::string& wname : workloads) {
        const auto workload = makeWorkload(wname);
        for (GpuModel model : gpus) {
            const GpuConfig& cfg = gpuConfig(model);
            const WorkloadInstance inst = workload->build(cfg.dialect, {});

            const std::vector<TargetStructure> structures =
                selectStructures(cfg, workload->usesLocalMemory(),
                                 requested);
            if (structures.empty())
                continue;

            // Legacy engine: golden + from-scratch injections.
            FaultInjector legacy(cfg, inst);
            auto t0 = std::chrono::steady_clock::now();
            legacy.goldenRun();
            auto t1 = std::chrono::steady_clock::now();
            const double golden_s = seconds(t0, t1);

            // Checkpointed engine: same golden, plus the pack.
            FaultInjector ckpt(cfg, inst);
            ckpt.adoptGoldenCycles(legacy.goldenCycles());
            t0 = std::chrono::steady_clock::now();
            const auto pack =
                ckpt.buildCheckpointPack(checkpoints, structures, behaviors);
            t1 = std::chrono::steady_clock::now();
            const double pack_s = seconds(t0, t1);
            peak_pack_bytes =
                std::max(peak_pack_bytes, pack->approxBytes());
            peak_pack_full_bytes = std::max(peak_pack_full_bytes,
                                            pack->fullEquivalentBytes());

            for (TargetStructure s : structures) {
                for (FaultBehavior behavior : behaviors) {
                    CellResult cell;
                    cell.workload = wname;
                    cell.gpu = cfg.name;
                    cell.structure = std::string(targetStructureName(s));
                    cell.behavior = behavior;
                    cell.injections = injections;
                    cell.goldenSeconds = golden_s;
                    cell.packSeconds = pack_s;
                    cell.packBytes = pack->approxBytes();
                    cell.packFullBytes = pack->fullEquivalentBytes();

                    // Same cell seed across behaviors: each behavior
                    // re-runs the same bit/cycle fault list (the
                    // intermittent duty-cycle draws come strictly
                    // after, so they don't perturb the list).
                    const std::uint64_t cseed =
                        deriveSeed(seed, static_cast<std::uint64_t>(s));
                    const FaultShape shape{behavior,
                                           FaultPattern::SingleBit};

                    std::vector<InjectionResult> legacy_results;
                    legacy_results.reserve(injections);
                    t0 = std::chrono::steady_clock::now();
                    for (std::size_t i = 0; i < injections; ++i) {
                        legacy_results.push_back(runIndexedInjection(
                            legacy, s, cseed, i, shape));
                    }
                    t1 = std::chrono::steady_clock::now();
                    cell.legacySeconds = seconds(t0, t1);

                    ckpt.resetPhaseStats();
                    t0 = std::chrono::steady_clock::now();
                    for (std::size_t i = 0; i < injections; ++i) {
                        const InjectionResult r = runIndexedInjection(
                            ckpt, s, cseed, i, shape);
                        if (r.shortcut == InjectionShortcut::DeadWindow)
                            ++cell.prefiltered;
                        else if (r.shortcut ==
                                 InjectionShortcut::ValueResidency)
                            ++cell.residencyPrefiltered;
                        if (r.outcome != legacy_results[i].outcome ||
                            r.trap != legacy_results[i].trap) {
                            cell.outcomesEqual = false;
                        }
                    }
                    t1 = std::chrono::steady_clock::now();
                    cell.checkpointSeconds = seconds(t0, t1);
                    cell.phases = ckpt.phaseStats();

                    cell.packShare =
                        cell.packSeconds /
                        static_cast<double>(structures.size() *
                                            behaviors.size());
                    all_equal = all_equal && cell.outcomesEqual;
                    legacy_total += cell.legacySeconds;
                    ckpt_total += cell.checkpointSeconds + cell.packShare;
                    injections_total += injections;
                    cells.push_back(std::move(cell));
                }
            }
        }
    }

    InjectionPhaseStats phases_total;
    for (const CellResult& c : cells)
        phases_total += c.phases;

    // Per-behavior totals, for the JSON "behaviors" array and the
    // stderr table alike.
    struct BehaviorTotals
    {
        FaultBehavior behavior = FaultBehavior::Transient;
        std::size_t injections = 0;
        double legacySeconds = 0.0;
        double checkpointSeconds = 0.0; ///< pack shares included
        InjectionPhaseStats phases;

        double
        prefilterRate() const
        {
            const double denom =
                injections > 0 ? static_cast<double>(injections) : 1.0;
            return (phases.deadWindowHits + phases.residencyHits) / denom;
        }

        double
        speedup() const
        {
            return checkpointSeconds > 0
                       ? legacySeconds / checkpointSeconds
                       : 0.0;
        }
    };
    std::vector<BehaviorTotals> totals;
    for (FaultBehavior behavior : behaviors) {
        BehaviorTotals t;
        t.behavior = behavior;
        for (const CellResult& c : cells) {
            if (c.behavior != behavior)
                continue;
            t.injections += c.injections;
            t.legacySeconds += c.legacySeconds;
            t.checkpointSeconds += c.checkpointSeconds + c.packShare;
            t.phases += c.phases;
        }
        totals.push_back(t);
    }

    // ---- BENCH JSON ----
    std::printf("{\n  \"bench\": \"injection_throughput\",\n");
    std::printf("  \"checkpoints\": %u,\n", checkpoints);
    std::printf("  \"injections_per_cell\": %zu,\n", injections);
    std::printf("  \"cells\": [\n");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellResult& c = cells[i];
        // Per-cell speedup uses the same basis as the aggregate: the
        // cell's share of the pack-recording cost is charged to the
        // checkpointed engine (packShare below), so a cell can never
        // look like a win while being a net slowdown.
        const double ckpt_total_s = c.checkpointSeconds + c.packShare;
        std::printf(
            "    {\"workload\": \"%s\", \"gpu\": \"%s\", "
            "\"structure\": \"%s\", \"behavior\": \"%s\", "
            "\"injections\": %zu, "
            "\"prefiltered\": %zu, \"residency_prefiltered\": %zu, "
            "\"golden_s\": %.6f, \"pack_s\": %.6f, "
            "\"pack_share_s\": %.6f, "
            "\"legacy_s\": %.6f, \"checkpoint_s\": %.6f, "
            "\"prefilter_s\": %.6f, \"restore_s\": %.6f, "
            "\"replay_s\": %.6f, "
            "\"pack_bytes\": %zu, \"pack_full_bytes\": %zu, "
            "\"legacy_ips\": %.2f, \"checkpoint_ips\": %.2f, "
            "\"speedup\": %.3f, \"outcomes_equal\": %s}%s\n",
            c.workload.c_str(), c.gpu.c_str(), c.structure.c_str(),
            std::string(faultBehaviorName(c.behavior)).c_str(),
            c.injections, c.prefiltered, c.residencyPrefiltered,
            c.goldenSeconds, c.packSeconds, c.packShare, c.legacySeconds,
            c.checkpointSeconds, c.phases.prefilterSeconds,
            c.phases.restoreSeconds, c.phases.replaySeconds,
            c.packBytes, c.packFullBytes,
            c.legacySeconds > 0 ? c.injections / c.legacySeconds : 0.0,
            ckpt_total_s > 0 ? c.injections / ckpt_total_s : 0.0,
            ckpt_total_s > 0 ? c.legacySeconds / ckpt_total_s : 0.0,
            c.outcomesEqual ? "true" : "false",
            i + 1 < cells.size() ? "," : "");
    }
    std::printf("  ],\n");

    // Per-behavior aggregate with its prefilter's hit rate: transient
    // quotes the dead-window prefilter, persistent behaviors the
    // value-residency prefilter.
    std::printf("  \"behaviors\": [\n");
    for (std::size_t b = 0; b < totals.size(); ++b) {
        const BehaviorTotals& t = totals[b];
        std::printf(
            "    {\"behavior\": \"%s\", \"injections\": %zu, "
            "\"dead_window_hits\": %llu, \"residency_hits\": %llu, "
            "\"prefilter_rate\": %.4f, "
            "\"legacy_s\": %.6f, \"checkpoint_s\": %.6f, "
            "\"prefilter_s\": %.6f, \"restore_s\": %.6f, "
            "\"replay_s\": %.6f, "
            "\"legacy_ips\": %.2f, \"checkpoint_ips\": %.2f, "
            "\"speedup\": %.3f}%s\n",
            std::string(faultBehaviorName(t.behavior)).c_str(),
            t.injections,
            static_cast<unsigned long long>(t.phases.deadWindowHits),
            static_cast<unsigned long long>(t.phases.residencyHits),
            t.prefilterRate(), t.legacySeconds, t.checkpointSeconds,
            t.phases.prefilterSeconds, t.phases.restoreSeconds,
            t.phases.replaySeconds,
            t.legacySeconds > 0 ? t.injections / t.legacySeconds : 0.0,
            t.checkpointSeconds > 0 ? t.injections / t.checkpointSeconds
                                    : 0.0,
            t.speedup(), b + 1 < totals.size() ? "," : "");
    }
    std::printf("  ],\n");
    std::printf("  \"aggregate\": {\n");
    std::printf("    \"injections\": %zu,\n", injections_total);
    std::printf("    \"legacy_s\": %.6f,\n", legacy_total);
    std::printf("    \"checkpoint_s\": %.6f,\n", ckpt_total);
    std::printf("    \"prefilter_s\": %.6f,\n",
                phases_total.prefilterSeconds);
    std::printf("    \"restore_s\": %.6f,\n", phases_total.restoreSeconds);
    std::printf("    \"replay_s\": %.6f,\n", phases_total.replaySeconds);
    std::printf("    \"peak_pack_bytes\": %zu,\n", peak_pack_bytes);
    std::printf("    \"peak_pack_full_bytes\": %zu,\n",
                peak_pack_full_bytes);
    std::printf("    \"legacy_ips\": %.2f,\n",
                legacy_total > 0 ? injections_total / legacy_total : 0.0);
    std::printf("    \"checkpoint_ips\": %.2f,\n",
                ckpt_total > 0 ? injections_total / ckpt_total : 0.0);
    std::printf("    \"speedup\": %.3f,\n",
                ckpt_total > 0 ? legacy_total / ckpt_total : 0.0);
    std::printf("    \"outcomes_equal\": %s\n", all_equal ? "true" : "false");
    std::printf("  }\n}\n");

    // ---- Per-phase table (stderr; stdout stays pure JSON for CI) ----
    std::fprintf(stderr, "\n%-14s %6s %10s %10s %10s %10s %8s %8s\n",
                 "behavior", "inj", "legacy_s", "prefilt_s", "restore_s",
                 "replay_s", "prefilt%", "speedup");
    for (const BehaviorTotals& t : totals) {
        std::fprintf(
            stderr,
            "%-14s %6zu %10.3f %10.3f %10.3f %10.3f %7.1f%% %7.2fx\n",
            std::string(faultBehaviorName(t.behavior)).c_str(),
            t.injections, t.legacySeconds, t.phases.prefilterSeconds,
            t.phases.restoreSeconds, t.phases.replaySeconds,
            100.0 * t.prefilterRate(), t.speedup());
    }
    std::fprintf(stderr,
                 "peak checkpoint pack: %zu KiB delta-encoded "
                 "(full-snapshot equivalent %zu KiB, %.1fx smaller)\n",
                 peak_pack_bytes / 1024, peak_pack_full_bytes / 1024,
                 peak_pack_bytes > 0
                     ? static_cast<double>(peak_pack_full_bytes) /
                           static_cast<double>(peak_pack_bytes)
                     : 0.0);

    if (!all_equal) {
        std::fprintf(stderr,
                     "FAIL: checkpointed engine outcomes differ from the "
                     "legacy engine\n");
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    // Bad names in the list flags surface as FatalError: report them
    // like a usage error instead of aborting.
    return gpr::runToolMain(run, argc, argv);
}
