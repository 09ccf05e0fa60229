#include "reliability/fault_injector.hh"

// gpr:lint-allow-file(D1): timing whitelist — PhaseClock reads feed only
// the InjectionPhaseStats diagnostics, never outcomes or RNG draws.

#include <algorithm>
#include <chrono>
#include <optional>

#include "common/logging.hh"
#include "sim/cache.hh"
#include "sim/structure_registry.hh"

namespace gpr {
namespace {

/**
 * The chip-wide unit whose golden windows decide transient @p fault in
 * @p spec, or nullopt when no one unit holds every faulted bit.  The
 * fault upsets the aligned group of its pattern's width around the
 * sampled bit.  In word storage that group lies inside one word and in
 * the predicate file inside one predicate register (a warpWidth-bit lane
 * mask).  In the SIMT target it must lie inside the PC/mask unit or one
 * stack entry of a warp slot, and in a cache inside one data word.
 */
std::optional<std::uint64_t>
deadWindowUnit(const GpuConfig& config, const StructureSpec& spec,
               const FaultSpec& fault)
{
    const unsigned width = faultPatternWidth(fault.pattern);
    const std::uint64_t first = fault.bitIndex - fault.bitIndex % width;
    if (spec.kind == StructureKind::CacheArray)
        return cacheDataUnit(config.cacheLineWords(), first, width);
    const auto unit_of = [&](std::uint64_t bit) -> std::uint64_t {
        switch (spec.id) {
          case TargetStructure::PredicateFile:
            return bit / config.warpWidth;
          case TargetStructure::SimtStack: {
            // Per warp slot: the PC and both masks, then the entries.
            const std::uint64_t head = simtHeadBits(config);
            const std::uint64_t r = bit % simtBitsPerWarp(config);
            return bit / simtBitsPerWarp(config) * kSimtUnitsPerWarp +
                   (r < head ? 0 : 1 + (r - head) / simtEntryBits(config));
          }
          default:
            return bit / 32; // word storage
        }
    };
    const std::uint64_t unit = unit_of(first);
    if (unit_of(first + width - 1) != unit)
        return std::nullopt;
    return unit;
}

/**
 * The checkpoint cycles FaultInjector::buildCheckpointPack() places for
 * a golden run of @p golden >= 1 cycles: strictly ascending inside
 * (0, golden), since the spacing golden/(n+1) is at least one cycle.
 */
std::vector<Cycle>
evenCheckpointCycles(Cycle golden, unsigned budget)
{
    const std::uint64_t n =
        std::min<std::uint64_t>({budget, kMaxCheckpoints, golden - 1});
    std::vector<Cycle> cycles;
    cycles.reserve(n);
    for (std::uint64_t i = 1; i <= n; ++i)
        cycles.push_back(golden * i / (n + 1));
    return cycles;
}

using PhaseClock = std::chrono::steady_clock;

double
secondsSince(PhaseClock::time_point start)
{
    return std::chrono::duration<double>(PhaseClock::now() - start)
        .count();
}

} // namespace

FaultInjector::FaultInjector(const GpuConfig& config,
                             const WorkloadInstance& instance)
    : config_(config), instance_(instance), gpu_(config)
{
    if (instance.program.dialect() != config.dialect) {
        fatal("workload '", instance.workloadName, "' was built for ",
              dialectName(instance.program.dialect()), " but ", config.name,
              " executes ", dialectName(config.dialect));
    }
}

const RunResult&
FaultInjector::goldenRun()
{
    GPR_ASSERT(!golden_adopted_,
               "goldenRun() unavailable after adoptGoldenCycles() — only "
               "the cycle count was adopted, not a full RunResult");
    if (have_golden_)
        return golden_;

    golden_ = gpu_.run(instance_.program, instance_.launch,
                       instance_.image);
    if (!golden_.clean()) {
        fatal("workload '", instance_.workloadName,
              "' traps without any injected fault (",
              trapKindName(golden_.trap), ") — workload bug");
    }
    std::string why;
    if (!verifyOutputs(instance_, golden_.memory, &why)) {
        fatal("workload '", instance_.workloadName,
              "' fails its own golden check fault-free: ", why);
    }
    have_golden_ = true;
    return golden_;
}

Cycle
FaultInjector::goldenCycles()
{
    if (golden_adopted_)
        return golden_.stats.cycles;
    return goldenRun().stats.cycles;
}

void
FaultInjector::adoptGoldenCycles(Cycle cycles)
{
    GPR_ASSERT(cycles > 0, "adopted golden run must have executed");
    golden_ = RunResult{};
    golden_.stats.cycles = cycles;
    have_golden_ = true;
    golden_adopted_ = true;
}

std::shared_ptr<const CheckpointPack>
FaultInjector::buildCheckpointPack(
    unsigned checkpoints, const std::vector<TargetStructure>& structures,
    const std::vector<FaultBehavior>& behaviors)
{
    const Cycle golden = goldenCycles();

    auto pack = std::make_shared<CheckpointPack>();
    pack->goldenCycles = golden;

    // One recording pass: windows, the cycle-0 baseline and a delta at
    // each checkpoint cycle.
    FaultWindowRecorder window_recorder(config_, structures, behaviors);
    CheckpointRecorder recorder;
    recorder.checkpointCycles = evenCheckpointCycles(golden, checkpoints);
    RunOptions options;
    options.observer = &window_recorder;
    options.recorder = &recorder;
    const RunResult run = gpu_.run(instance_.program, instance_.launch,
                                   instance_.image, options);
    GPR_ASSERT(run.clean() && run.stats.cycles == golden,
               "recording pass diverged from the golden run — the "
               "simulator is not deterministic");
    window_recorder.finalize(pack->windows);
    pack->baseline = std::move(recorder.baseline);
    pack->deltas = std::move(recorder.deltas);
    GPR_ASSERT(!pack->deltas.empty() && pack->deltas.front().now == 0,
               "delta recording lost its cycle-0 checkpoint");

    adoptCheckpointPack(pack);
    return pack;
}

void
FaultInjector::adoptCheckpointPack(
    std::shared_ptr<const CheckpointPack> pack)
{
    GPR_ASSERT(pack, "adopting an empty checkpoint pack");
    GPR_ASSERT(pack->goldenCycles == goldenCycles(),
               "checkpoint pack was recorded for a different golden run");
    pack_ = std::move(pack);
    anchored_pack_ = nullptr; // re-anchor lazily on the next inject()
}

void
FaultInjector::ensureAnchored()
{
    if (anchored_pack_ == pack_.get())
        return;
    gpu_.anchorTo(pack_->baseline);
    scratch_ = pack_->baseline.memory;
    scratch_.markCleanForRestore();
    anchored_pack_ = pack_.get();
}

InjectionResult
FaultInjector::inject(const FaultSpec& fault)
{
    const Cycle golden_cycles = goldenCycles();
    const bool persistent = fault.persistent();

    // The dead-window prefilter exists only for *transient* faults in a
    // unit with windows: a word of word storage, a predicate register,
    // the PC/mask unit or a stack entry of the SIMT target, or a cache
    // data word.  Cache metadata acts on the trajectory without a
    // modelled read, and a persistent fault's word is never dead while
    // the forcing holds (the next read re-manifests it regardless of
    // golden liveness).  Multi-bit patterns stay in scope when the
    // aligned group lies inside one unit, so one window query covers
    // every bit.  A structure the pack did not record answers
    // observed() conservatively.  The residency prefilter needs a read
    // overlay: it is sound only where forcing leaves the raw word alone.
    ++phase_stats_.injections;
    const StructureSpec& spec = structureSpec(fault.structure);
    if (pack_ && !persistent) {
        if (const std::optional<std::uint64_t> unit =
                deadWindowUnit(config_, spec, fault)) {
            const auto t0 = PhaseClock::now();
            const bool observed =
                pack_->windows.observed(fault.structure, *unit, fault.cycle);
            phase_stats_.prefilterSeconds += secondsSince(t0);
            if (!observed) {
                // The golden run never reads this word between the flip
                // and the word's next overwrite (or the end of the
                // run): the flip can not enter any computation, so the
                // injected run is the golden run — exactly Masked, no
                // simulation needed.
                ++phase_stats_.deadWindowHits;
                InjectionResult result;
                result.fault = fault;
                result.outcome = FaultOutcome::Masked;
                result.shortcut = InjectionShortcut::DeadWindow;
                return result;
            }
        }
    } else if (pack_ &&
               spec.persistenceHook == PersistenceHook::StorageReadOverlay) {
        // Value-residency prefilter: the read overlay never mutates the
        // raw word, so the fault reaches computation only through reads
        // whose observed value the forcing *changes*.  agree is the
        // first cycle from which every remaining golden read of the
        // faulted bits observes the forced value (exact for word
        // storage; intermittent faults force the same value whenever
        // active, so agreement over all reads covers every duty cycle).
        const auto t0 = PhaseClock::now();
        const unsigned width = faultPatternWidth(fault.pattern);
        const auto bit_in_word = static_cast<unsigned>(fault.bitIndex % 32);
        const Cycle agree = pack_->windows.stuckAgreeCycle(
            fault.structure, fault.bitIndex / 32,
            bit_in_word - bit_in_word % width, width,
            faultForcedValue(fault));
        phase_stats_.prefilterSeconds += secondsSince(t0);
        if (fault.cycle >= agree) {
            ++phase_stats_.residencyHits;
            InjectionResult result;
            result.fault = fault;
            result.outcome = FaultOutcome::Masked;
            result.shortcut = InjectionShortcut::ValueResidency;
            return result;
        }
    }

    RunOptions options;
    options.fault = fault;
    // Watchdog: anything this much past golden is a hang (DUE).
    options.maxCycles =
        static_cast<Cycle>(static_cast<double>(golden_cycles) *
                           config_.watchdogFactor) +
        1000;

    RunResult run;
    bool via_scratch = false;
    const auto run_start = PhaseClock::now();
    if (pack_) {
        // Nearest delta checkpoint at or before the fault cycle;
        // everything before it is bit-identical to the golden run, so
        // the anchored restore skips it outright, touching only the
        // pages the previous injection dirtied.
        ensureAnchored();
        options.resumeDelta = &pack_->deltas[checkpointIndexFor(fault.cycle)];
        options.imageInOut = &scratch_;
        via_scratch = true;
        run = gpu_.run(instance_.program, instance_.launch,
                       MemoryImage{}, options);
    } else {
        run = gpu_.run(instance_.program, instance_.launch,
                       instance_.image, options);
    }
    const double run_seconds = secondsSince(run_start);
    phase_stats_.restoreSeconds += run.restoreSeconds;
    phase_stats_.replaySeconds +=
        std::max(0.0, run_seconds - run.restoreSeconds);

    InjectionResult result;
    result.fault = fault;
    result.trap = run.trap;
    if (!run.clean()) {
        result.outcome = FaultOutcome::Due;
    } else if (verifyOutputs(instance_,
                             via_scratch ? scratch_ : run.memory)) {
        result.outcome = FaultOutcome::Masked;
    } else {
        result.outcome = FaultOutcome::Sdc;
    }
    return result;
}

FaultSpec
FaultInjector::sampleRandom(TargetStructure structure, Rng& rng,
                            const FaultShape& shape)
{
    const std::uint64_t bits = gpu_.structureBits(structure);
    GPR_ASSERT(bits > 0, "cannot inject into ",
               targetStructureName(structure), " on ", config_.name);

    FaultSpec fault;
    fault.structure = structure;
    // Draw order is part of the determinism contract: bit then cycle,
    // exactly as the original single-flip model, so default-shape
    // campaigns replay pre-redesign samples bit-for-bit.  Shape-specific
    // draws come strictly after.
    fault.bitIndex = rng.below(bits);
    fault.cycle = rng.below(goldenCycles());
    fault.behavior = shape.behavior;
    fault.pattern = shape.pattern;
    if (shape.behavior == FaultBehavior::Intermittent) {
        // Seed-derived duty cycle: period 8..64, active 1..period-1
        // (never a permanently-stuck or never-active degenerate), and a
        // per-injection forced value.
        fault.intermittentPeriod = 8 + static_cast<std::uint32_t>(
                                           rng.below(57));
        fault.intermittentActive = 1 + static_cast<std::uint32_t>(
            rng.below(fault.intermittentPeriod - 1));
        fault.intermittentValue = rng.below(2) != 0;
    }
    return fault;
}

InjectionResult
FaultInjector::injectRandom(TargetStructure structure, Rng& rng,
                            const FaultShape& shape)
{
    return inject(sampleRandom(structure, rng, shape));
}

std::size_t
FaultInjector::checkpointIndexFor(Cycle cycle) const
{
    if (!pack_)
        return 0;
    const auto it = std::upper_bound(
        pack_->deltas.begin(), pack_->deltas.end(), cycle,
        [](Cycle c, const GpuCheckpointDelta& d) { return c < d.now; });
    GPR_ASSERT(it != pack_->deltas.begin(),
               "checkpoint pack lacks its cycle-0 delta");
    return static_cast<std::size_t>(it - pack_->deltas.begin()) - 1;
}

} // namespace gpr
