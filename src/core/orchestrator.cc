#include "core/orchestrator.hh"

// gpr:lint-allow-file(D1): timing whitelist — steady_clock reads feed
// only progress/busy-seconds diagnostics, never outcome counts, hashes,
// or RNG draws (resume bit-identity strips wall-clock fields).

#include <algorithm>
#include <chrono>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/string_utils.hh"
#include "core/export.hh"
#include "reliability/ace.hh"
#include "reliability/campaign.hh"
#include "workloads/workloads.hh"

namespace gpr {

// ---------------------------------------------------------- decomposition

namespace {

/**
 * [begin, end) injection ranges of one campaign's shards, each look span
 * cut into shards of at most @p shard_size(span) injections.  Shard
 * boundaries always coincide with the adaptive look schedule (a fixed
 * plan is one "look" covering everything), so the cumulative counts the
 * stopping rule reads at each look are whole-shard sums regardless of
 * the shard size — which is what keeps the stopping decision a pure
 * function of the ordered record prefix.
 */
template <typename ShardSize>
std::vector<std::pair<std::uint64_t, std::uint64_t>>
campaignShardRanges(const SamplePlan& plan, ShardSize shard_size)
{
    std::vector<std::uint64_t> looks;
    if (plan.adaptive())
        looks = sequentialSchedule(plan);
    else
        looks = {plan.injections};

    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
    std::uint64_t prev = 0;
    for (std::uint64_t look : looks) {
        const std::uint64_t per = shard_size(look - prev);
        for (std::uint64_t begin = prev; begin < look; begin += per)
            ranges.emplace_back(begin,
                                std::min<std::uint64_t>(begin + per, look));
        prev = look;
    }
    return ranges;
}

} // namespace

std::size_t
defaultShardCount(const SamplePlan& plan)
{
    const std::size_t n = plan.resolvedMaxInjections();
    if (n == 0)
        return 0;
    // ~250 injections per shard: fine-grained enough to keep a pool busy
    // and to make resume checkpoints frequent, coarse enough that the
    // per-shard simulator setup stays negligible.  Deliberately *not* a
    // function of the worker count, so a store written at --jobs 1
    // resumes cleanly at --jobs 8.
    const std::size_t shards = (n + 249) / 250;
    return std::min<std::size_t>(std::max<std::size_t>(shards, 1), 64);
}

std::vector<ShardKey>
decomposeStudy(const StudySpec& spec)
{
    std::vector<ShardKey> shards;
    if (spec.aceOnly)
        return shards;
    const std::size_t n = spec.plan.resolvedMaxInjections();
    if (n == 0)
        return shards;
    std::size_t shards_per_campaign = spec.shardsPerCampaign;
    if (shards_per_campaign == 0)
        shards_per_campaign = defaultShardCount(spec.plan);
    const std::uint64_t per =
        (n + shards_per_campaign - 1) / shards_per_campaign;
    const auto ranges =
        campaignShardRanges(spec.plan, [per](std::uint64_t) { return per; });

    // Duplicate (workload, GPU) grid entries are one cell: identical
    // seeds produce identical counts, so they share one set of shards
    // (and one store identity — ShardKeys could not tell them apart).
    // Requested structures are validated against the registry up front
    // so a typo fails loudly before any simulation runs.
    for (TargetStructure s : spec.structures)
        structureSpec(s);

    std::set<std::pair<std::string, GpuModel>> seen;
    for (const std::string& w : spec.resolvedWorkloads()) {
        const bool uses_lds = makeWorkload(w)->usesLocalMemory();
        for (GpuModel gpu : spec.resolvedGpus()) {
            if (!seen.insert({w, gpu}).second)
                continue;
            const GpuConfig& config = gpuConfig(gpu);
            for (TargetStructure s : selectStructures(
                     config, uses_lds, spec.structures)) {
                for (std::size_t index = 0; index < ranges.size();
                     ++index) {
                    ShardKey key;
                    key.workload = w;
                    key.gpu = gpu;
                    key.structure = s;
                    key.shardIndex = static_cast<std::uint32_t>(index);
                    key.injectionBegin = ranges[index].first;
                    key.injectionEnd = ranges[index].second;
                    key.campaignSeed =
                        deriveSeed(spec.seed,
                                   static_cast<std::uint64_t>(s));
                    key.workloadSeed = spec.workloadSeed;
                    key.behavior = spec.faultBehavior;
                    key.pattern = spec.faultPattern;
                    shards.push_back(std::move(key));
                }
            }
        }
    }
    return shards;
}

std::size_t
StudyPlan::totalShards() const
{
    std::size_t total = 0;
    for (const StudyPlanCampaign& c : campaigns)
        total += c.shards;
    return total;
}

std::uint64_t
StudyPlan::totalInjections() const
{
    std::uint64_t total = 0;
    for (const StudyPlanCampaign& c : campaigns)
        total += c.injections;
    return total;
}

StudyPlan
planStudy(const StudySpec& spec)
{
    spec.validate();
    StudyPlan plan;
    plan.gridCells =
        spec.resolvedWorkloads().size() * spec.resolvedGpus().size();

    std::set<std::pair<std::string, GpuModel>> cells;
    for (const std::string& w : spec.resolvedWorkloads())
        for (GpuModel g : spec.resolvedGpus())
            cells.insert({w, g});
    plan.goldenRuns = cells.size();

    for (const ShardKey& key : decomposeStudy(spec)) {
        if (!plan.campaigns.empty()) {
            StudyPlanCampaign& last = plan.campaigns.back();
            if (last.workload == key.workload && last.gpu == key.gpu &&
                last.structure == key.structure) {
                ++last.shards;
                last.injections += key.injectionEnd - key.injectionBegin;
                continue;
            }
        }
        StudyPlanCampaign c;
        c.workload = key.workload;
        c.gpu = key.gpu;
        c.structure = key.structure;
        c.shards = 1;
        c.injections = key.injectionEnd - key.injectionBegin;
        plan.campaigns.push_back(std::move(c));
    }
    return plan;
}

// -------------------------------------------------------------- execution

namespace {

/** Shards per worker in each look of a standalone campaign.  One shard
 *  per worker leaves the look's tail to whichever worker drew the
 *  slowest injections; more let the pool rebalance, at about 0.3 ms of
 *  injector setup per shard.  Of 1, 2, 4, 8 and 16, 8 was the fastest or
 *  tied on 150-injection fixed campaigns and on an adaptive one (GTX 480
 *  register file, 4 jobs on a 4-vCPU VM). */
constexpr std::size_t kShardsPerWorker = 8;

unsigned
resolvedJobs(unsigned jobs)
{
    return jobs ? jobs : std::max(1u, std::thread::hardware_concurrency());
}

/** What the executor reads of a study or of a standalone campaign. */
struct ExecOptions
{
    SamplePlan plan;
    /** Pool size; 0 = hardware concurrency. */
    unsigned jobs = 0;
    unsigned checkpoints = 0;
    /** The one fault behavior the cells' packs record for. */
    FaultBehavior behavior = FaultBehavior::Transient;
    /** Input seed of the instances the golden wave builds. */
    std::uint64_t workloadSeed = 0;
    bool verbose = false;
};

struct CampaignExec;
/** A shard ready for submission: its campaign and its key. */
using ShardTask = std::pair<CampaignExec*, const ShardKey*>;

/**
 * One (workload, GPU) cell with its cached golden/ACE pass.  A grid cell
 * names its workload and GPU, and the golden wave builds its instance;
 * a caller-built cell points at the caller's config and instance.
 */
struct Cell
{
    std::string workload;
    GpuModel gpu = GpuModel::GeforceGtx480;
    const GpuConfig* config = nullptr;
    /** The caller's instance, or `built` once the golden wave ran. */
    const WorkloadInstance* instance = nullptr;
    WorkloadInstance built;
    bool usesLds = false;
    AceResult ace;
    /** The structures of the cell's campaigns, which its pack records. */
    std::vector<TargetStructure> structures;

    // Admission state, guarded by the executor's state mutex.  The pack
    // (one extra golden pass) is built by the cell's admission task and
    // released when its last campaign finishes (see admit_next_locked).
    std::shared_ptr<const CheckpointPack> pack;
    std::size_t campaignsLeft = 0;
    /** First-batch shards held back until the cell is admitted. */
    std::vector<ShardTask> waiting;
};

/**
 * One (cell, structure) campaign's execution state: the worst-case
 * ordered shard list, its batch boundaries (one batch per adaptive
 * look; a single batch for a fixed plan), and the cumulative counts of
 * the merged prefix.  Batches are issued strictly in order and the
 * next one only after the stopping rule declined to stop on the counts
 * so far — shards beyond the stopping point are pruned, never run.
 */
struct CampaignExec
{
    std::size_t cellIndex = 0;
    TargetStructure structure = TargetStructure::VectorRegisterFile;
    std::vector<ShardKey> shards;
    /** When set, (*records)[i] receives injection i's result.  It holds
     *  the worst-case range, and each shard writes only its own slice. */
    std::vector<InjectionResult>* records = nullptr;
    /** Exclusive shard index ending each batch. */
    std::vector<std::size_t> batchEndShard;
    std::size_t issuedBatches = 0;
    /** Shards of the current batch still executing on the pool. */
    std::size_t outstanding = 0;
    ShardCounts counts;
    std::uint64_t injectionsDone = 0;
    std::size_t shardsDone = 0;
    bool finished = false;
};

void
assembleReport(ReliabilityReport& report, const Cell& cell,
               const StudySpec& spec,
               const std::map<TargetStructure, const CampaignExec*>&
                   campaigns)
{
    const std::vector<TargetStructure>& requested = spec.structures;
    report.workload = cell.workload;
    report.gpu = cell.gpu;
    report.gpuName = cell.config->name;
    report.aceWallSeconds = cell.ace.wallSeconds;
    report.cycles = cell.ace.goldenStats.cycles;
    report.execSeconds = executionSeconds(*cell.config, report.cycles);
    report.ipc = cell.ace.goldenStats.ipc();
    report.warpOccupancy = cell.ace.goldenStats.avgWarpOccupancy;

    report.structures.clear();
    report.structures.reserve(kNumTargetStructures);
    for (const StructureSpec& sspec : structureRegistry()) {
        StructureReport sr;
        sr.structure = sspec.id;
        sr.applicable =
            structureApplies(*cell.config, sspec.id, cell.usesLds);
        const bool selected =
            requested.empty() ||
            std::find(requested.begin(), requested.end(), sspec.id) !=
                requested.end();
        if (sr.applicable) {
            sr.avfAce = cell.ace.forStructure(sspec.id).avf();
            sr.occupancy = sspec.occupancy(cell.ace.goldenStats);
            // FI fields (incl. the injection count, which downstream
            // consumers read as "was this measured") stay zero for
            // structures a --structures restriction excluded; ACE +
            // occupancy are still reported — the golden pass covers
            // every structure for free.
            if (!spec.aceOnly && selected) {
                // decomposeStudy made a campaign for exactly the
                // selected, applicable structures.
                const auto it = campaigns.find(sspec.id);
                GPR_ASSERT(it != campaigns.end(),
                           "selected structure without a campaign");
                const CampaignExec& c = *it->second;
                // Fold the shard counts through CampaignResult so the
                // statistics (AVF, rates, Wilson intervals, achieved
                // margin) share one implementation with runCampaign.
                CampaignResult cr;
                cr.structure = sspec.id;
                cr.confidence = spec.plan.confidence;
                // The campaign's own injection count — for an adaptive
                // plan this is its stopping point, not the plan ceiling.
                cr.injections = static_cast<std::size_t>(c.injectionsDone);
                cr.masked = static_cast<std::size_t>(c.counts.masked);
                cr.sdc = static_cast<std::size_t>(c.counts.sdc);
                cr.due = static_cast<std::size_t>(c.counts.due);
                cr.wallSeconds = c.counts.busySeconds;
                sr.avfFi = cr.avf();
                sr.fiErrorMargin = cr.errorMargin();
                sr.sdcRate = cr.sdcRate();
                sr.dueRate = cr.dueRate();
                sr.avfCi = cr.avfInterval();
                sr.sdcCi = cr.sdcInterval();
                sr.dueCi = cr.dueInterval();
                sr.achievedMargin = cr.achievedMargin();
                sr.ciConfidence = spec.plan.confidence;
                sr.fiWallSeconds = cr.wallSeconds;
                sr.injections = cr.injections;
                sr.behavior = spec.faultBehavior;
                sr.pattern = spec.faultPattern;
            }
        }
        report.structures.push_back(sr);
    }

    // EPF models the paper's three storage structures (the FIT roll-up
    // has no per-bit rate calibration for control cells).  Structures
    // without measured FI (--ace-only, or excluded by --structures)
    // fall back to their ACE AVF — reporting FIT 0 for a structure that
    // merely wasn't injected would read as ultra-reliable rather than
    // not-measured.
    const auto pick = [&](TargetStructure s) {
        const StructureReport& sr = report.forStructure(s);
        if (!sr.applicable)
            return 0.0;
        return sr.injections ? sr.avfFi : sr.avfAce;
    };
    report.epf = computeEpf(*cell.config, report.cycles,
                            pick(TargetStructure::VectorRegisterFile),
                            pick(TargetStructure::SharedMemory),
                            pick(TargetStructure::ScalarRegisterFile),
                            spec.fitParams);

    // Propagate the AVF intervals through the FIT/EPF roll-up: EPF is
    // monotone (decreasing) in every AVF, so evaluating it at the two
    // interval endpoints bounds the EPF itself.  Unmeasured structures
    // contribute their (point) ACE fallback at both endpoints.
    const auto pick_bound = [&](TargetStructure s, bool upper) {
        const StructureReport& sr = report.forStructure(s);
        if (!sr.applicable)
            return 0.0;
        if (!sr.injections)
            return sr.avfAce;
        return upper ? sr.avfCi.hi : sr.avfCi.lo;
    };
    const auto epf_at = [&](bool upper) {
        return computeEpf(
                   *cell.config, report.cycles,
                   pick_bound(TargetStructure::VectorRegisterFile, upper),
                   pick_bound(TargetStructure::SharedMemory, upper),
                   pick_bound(TargetStructure::ScalarRegisterFile, upper),
                   spec.fitParams)
            .epf();
    };
    const double epf_a = epf_at(false);
    const double epf_b = epf_at(true);
    report.epfCi.lo = std::min(epf_a, epf_b);
    report.epfCi.hi = std::max(epf_a, epf_b);
}

/**
 * Execute @p campaigns over @p cells on one pool of `opts.jobs` workers:
 * the golden+ACE wave over every cell, then cell admission (longest
 * golden run first, at most `jobs` packs alive), the shard tasks, and
 * the per-look stopping rule.  Shards found in @p checkpointed merge
 * without running; executed shards append to @p store when it is open.
 * @p grid describes the cells in the golden wave's progress line.
 */
void
executeCampaigns(const ExecOptions& opts,
                 std::vector<std::unique_ptr<Cell>>& cells,
                 std::vector<CampaignExec>& campaigns,
                 const std::map<ShardKey, ShardCounts>& checkpointed,
                 std::ofstream& store, const std::string& grid,
                 StudyProgress& progress)
{
    for (const CampaignExec& c : campaigns)
        progress.totalShards += c.shards.size();

    // The pool never spawns more threads than it has work for the
    // larger wave.
    const unsigned jobs = static_cast<unsigned>(std::min<std::size_t>(
        resolvedJobs(opts.jobs),
        std::max({std::size_t{1}, cells.size(), progress.totalShards})));
    WorkerPool pool(jobs);
    std::mutex error_mutex;
    std::exception_ptr first_error;
    auto record_error = [&]() {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error)
            first_error = std::current_exception();
    };
    // Once any task fails, remaining tasks become no-ops so the error
    // surfaces after in-flight work only, not after the whole study.
    auto errored = [&]() {
        std::lock_guard<std::mutex> lock(error_mutex);
        return static_cast<bool>(first_error);
    };
    auto rethrow_errors = [&]() {
        pool.waitIdle();
        if (first_error)
            std::rethrow_exception(first_error);
    };

    // Wave 1 — golden-run cache: one ACE-instrumented reference
    // simulation per unique (workload, GPU, workloadSeed) cell.  Every
    // campaign shard of the cell — and every duplicate grid entry —
    // reuses it instead of re-running the golden.
    for (auto& c : cells) {
        Cell* cell = c.get();
        pool.submit([&opts, &record_error, &errored, cell]() {
            if (errored())
                return;
            try {
                if (!cell->instance) {
                    const auto workload = makeWorkload(cell->workload);
                    cell->usesLds = workload->usesLocalMemory();
                    WorkloadParams params;
                    params.seed = opts.workloadSeed;
                    cell->built =
                        workload->build(cell->config->dialect, params);
                    cell->instance = &cell->built;
                }
                cell->ace = runAceAnalysis(*cell->config, *cell->instance);
            } catch (...) {
                record_error();
            }
        });
    }
    rethrow_errors();
    progress.goldenRuns = cells.size();
    if (opts.verbose) {
        inform("study: ", cells.size(), " golden+ACE runs cached (", grid,
               ")");
    }

    // Wave 2 — one CampaignExec per (cell, structure), batches issued
    // dynamically: batch k+1 of a campaign is only submitted after every
    // shard of batches 0..k merged and the stopping rule declined to
    // stop on the cumulative counts (a fixed plan is a single batch).
    // Campaigns advance independently, so the pool stays busy across
    // the grid even though batches within one campaign serialize.
    const bool adaptive = opts.plan.adaptive();
    std::vector<std::uint64_t> looks;
    double guarded_confidence = 0.0;
    if (adaptive && !campaigns.empty()) {
        looks = sequentialSchedule(opts.plan);
        // Derived once: every stop evaluation below runs under the
        // state mutex and must not rebuild the schedule.
        guarded_confidence = sequentialConfidence(opts.plan);
    }

    for (CampaignExec& c : campaigns) {
        if (adaptive) {
            std::size_t look = 0;
            for (std::size_t i = 0; i < c.shards.size(); ++i) {
                if (c.shards[i].injectionEnd == looks[look]) {
                    c.batchEndShard.push_back(i + 1);
                    ++look;
                }
            }
            GPR_ASSERT(look == looks.size(),
                       "shard ranges must tile the look schedule");
        } else {
            c.batchEndShard = {c.shards.size()};
        }
        Cell& cell = *cells[c.cellIndex];
        cell.structures.push_back(c.structure);
        ++cell.campaignsLeft;
    }

    // Guards campaigns' counts, the cells' admission state and progress.
    std::mutex state_mutex;
    std::mutex store_mutex;
    // Cells with shards to run, in admission order; the first
    // `admitted_cells` of them have been admitted.
    std::vector<Cell*> admission;
    std::size_t admitted_cells = 0;
    std::size_t live_packs = 0;
    std::function<void(CampaignExec*, const ShardKey*)> submit_shard;

    /**
     * Admit the next waiting cell: build its pack in a pool task of its
     * own, then submit the shards it held back, so no worker ever waits
     * on another worker's pack.  Called once per slot at the start and
     * once whenever an admitted cell finishes, so at most `jobs` cells
     * hold or build a pack at any time.
     */
    auto admit_next_locked = [&]() {
        if (admitted_cells == admission.size())
            return;
        Cell* cell = admission[admitted_cells++];
        const auto release_waiting_locked = [&submit_shard, cell]() {
            for (const auto& [campaign, key] : cell->waiting)
                submit_shard(campaign, key);
            cell->waiting.clear();
        };
        if (opts.checkpoints == 0) {
            release_waiting_locked();
            return;
        }
        pool.submit([&, cell, release_waiting_locked]() {
            if (errored())
                return;
            try {
                const auto p0 = std::chrono::steady_clock::now();
                FaultInjector injector(*cell->config, *cell->instance);
                injector.adoptGoldenCycles(cell->ace.goldenStats.cycles);
                // Record for the structures this cell's campaigns
                // inject and the one fault behavior, and no others.
                auto pack = injector.buildCheckpointPack(
                    opts.checkpoints, cell->structures,
                    {opts.behavior});
                const double build_seconds =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - p0)
                        .count();
                std::lock_guard<std::mutex> lock(state_mutex);
                cell->pack = std::move(pack);
                ++progress.checkpointPacks;
                progress.packBuildSeconds += build_seconds;
                progress.peakLivePacks =
                    std::max(progress.peakLivePacks, ++live_packs);
                progress.peakPackBytes = std::max(
                    progress.peakPackBytes, cell->pack->approxBytes());
                progress.peakPackFullBytes =
                    std::max(progress.peakPackFullBytes,
                             cell->pack->fullEquivalentBytes());
                release_waiting_locked();
            } catch (...) {
                record_error();
            }
        });
    };

    auto merge_locked = [&](CampaignExec& c, const ShardKey& key,
                            const ShardCounts& counts, bool executed) {
        c.counts.masked += counts.masked;
        c.counts.sdc += counts.sdc;
        c.counts.due += counts.due;
        // Busy seconds are per-worker loop time: campaigns sharing the
        // pool sum to total worker-seconds, never double-counting
        // concurrent wall-clock.
        c.counts.busySeconds += counts.busySeconds;
        c.injectionsDone += key.injectionEnd - key.injectionBegin;
        ++c.shardsDone;
        if (executed) {
            ++progress.executedShards;
            progress.injectionsExecuted +=
                key.injectionEnd - key.injectionBegin;
            progress.shardBusySeconds += counts.busySeconds;
        } else {
            ++progress.resumedShards;
        }
    };

    auto finish_locked = [&](CampaignExec& c) {
        c.finished = true;
        progress.prunedShards += c.shards.size() - c.shardsDone;
        Cell* cell = cells[c.cellIndex].get();
        if (--cell->campaignsLeft == 0) {
            if (cell->pack) {
                cell->pack.reset();
                --live_packs;
            }
            // A no-op during the up-front pump (nothing is queued for
            // admission yet), so cells finished entirely from the store
            // never take a slot.
            admit_next_locked();
        }
        if (opts.verbose) {
            inform("study: ", cell->workload, " on ",
                   gpuModelName(cell->gpu), " ",
                   targetStructureName(c.structure), " campaign done (",
                   c.injectionsDone, " injections, ", c.shardsDone,
                   " shards, ",
                   strprintf("%.2f", c.counts.busySeconds), " worker-s)");
        }
    };

    /**
     * Advance @p c until it is finished or has shards in flight: when
     * the current batch is fully merged, evaluate the stopping rule on
     * the cumulative counts and either finish or issue the next batch.
     * Store-resumed shards merge inline (the while loop then re-
     * evaluates immediately); the rest are handed back for submission
     * outside the lock.
     */
    auto pump_locked = [&](CampaignExec& c, std::vector<ShardTask>& to_run) {
        while (!c.finished && c.outstanding == 0) {
            if (c.issuedBatches > 0) {
                const bool last =
                    c.issuedBatches == c.batchEndShard.size();
                bool stop = !adaptive;
                if (adaptive) {
                    // The stopping decision reads only the ordered
                    // record prefix [0, injectionsDone) — bit-identical
                    // at every jobs/shards/resume configuration.
                    stop = evaluateSequentialStop(c.counts.sdc,
                                                  c.counts.due,
                                                  c.injectionsDone,
                                                  opts.plan,
                                                  guarded_confidence)
                               .stop;
                }
                if (stop || last) {
                    finish_locked(c);
                    break;
                }
            }
            const std::size_t begin =
                c.issuedBatches == 0
                    ? 0
                    : c.batchEndShard[c.issuedBatches - 1];
            const std::size_t end = c.batchEndShard[c.issuedBatches];
            ++c.issuedBatches;
            for (std::size_t i = begin; i < end; ++i) {
                const ShardKey& key = c.shards[i];
                if (const auto it = checkpointed.find(key);
                    it != checkpointed.end()) {
                    merge_locked(c, key, it->second, /*executed=*/false);
                } else {
                    ++c.outstanding;
                    to_run.emplace_back(&c, &key);
                }
            }
        }
    };

    // Recursive through std::function: a worker that completes the last
    // shard of a batch submits the campaign's next batch itself.  A
    // shard is only submitted once its cell is admitted and its pack
    // built, and the pack is only released after the cell's last shard
    // merged, so reading cell->pack here needs no lock.
    submit_shard =
        [&](CampaignExec* campaign, const ShardKey* keyp) {
            Cell* cell = cells[campaign->cellIndex].get();
            pool.submit([&, campaign, keyp, cell]() {
                if (errored())
                    return;
                try {
                    const ShardKey& key = *keyp;
                    const auto s0 = std::chrono::steady_clock::now();
                    FaultInjector injector(*cell->config, *cell->instance);
                    injector.adoptGoldenCycles(
                        cell->ace.goldenStats.cycles);
                    if (cell->pack)
                        injector.adoptCheckpointPack(cell->pack);
                    const FaultShape shape{key.behavior, key.pattern};
                    ShardCounts counts;
                    for (std::uint64_t i = key.injectionBegin;
                         i < key.injectionEnd; ++i) {
                        const InjectionResult r = runIndexedInjection(
                            injector, key.structure, key.campaignSeed, i,
                            shape);
                        switch (r.outcome) {
                          case FaultOutcome::Masked:
                            ++counts.masked;
                            break;
                          case FaultOutcome::Sdc:
                            ++counts.sdc;
                            break;
                          case FaultOutcome::Due:
                            ++counts.due;
                            break;
                        }
                        if (campaign->records)
                            (*campaign->records)[i] = r;
                    }
                    counts.busySeconds =
                        std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - s0)
                            .count();
                    if (store.is_open()) {
                        std::lock_guard<std::mutex> lock(store_mutex);
                        writeShardRecord(store, ShardRecord{key, counts});
                        store << '\n';
                        store.flush();
                    }
                    std::vector<ShardTask> to_run;
                    {
                        std::lock_guard<std::mutex> lock(state_mutex);
                        merge_locked(*campaign, key, counts,
                                     /*executed=*/true);
                        // Per-worker accumulation merged at join: the
                        // injector is this task's own; the only shared
                        // write is here, under the state mutex.
                        progress.phaseStats += injector.phaseStats();
                        --campaign->outstanding;
                        if (campaign->outstanding == 0)
                            pump_locked(*campaign, to_run);
                    }
                    for (const auto& [next_campaign, next_key] : to_run)
                        submit_shard(next_campaign, next_key);
                } catch (...) {
                    record_error();
                }
            });
        };

    {
        // Pump every campaign once up front: store-resumed shards merge
        // here, so only cells left with a shard to execute queue for
        // admission (a fully resumed cell never builds a pack).  The
        // longest golden runs are admitted first — their packs and
        // shards are the tail of the study — with ties in cell order.
        std::lock_guard<std::mutex> lock(state_mutex);
        std::vector<ShardTask> to_run;
        for (CampaignExec& c : campaigns)
            pump_locked(c, to_run);
        for (const ShardTask& task : to_run)
            cells[task.first->cellIndex]->waiting.push_back(task);
        for (const auto& c : cells)
            if (!c->waiting.empty())
                admission.push_back(c.get());
        std::stable_sort(admission.begin(), admission.end(),
                         [](const Cell* a, const Cell* b) {
                             return a->ace.goldenStats.cycles >
                                    b->ace.goldenStats.cycles;
                         });
        for (unsigned slot = 0; slot < jobs; ++slot)
            admit_next_locked();
    }
    rethrow_errors();
    for (const CampaignExec& c : campaigns) {
        GPR_ASSERT(c.finished && c.outstanding == 0,
                   "campaign did not run to a stopping point");
    }
}

} // namespace

StudyResult
runStudy(const StudySpec& spec, StudyProgress* progress_out)
{
    const auto t0 = std::chrono::steady_clock::now();
    spec.validate();

    StudyResult result;
    result.workloads = spec.resolvedWorkloads();
    result.gpus = spec.resolvedGpus();
    const std::size_t num_gpus = result.gpus.size();

    StudyProgress progress;
    progress.cells = result.workloads.size() * num_gpus;

    // Load completed shards from a previous (possibly killed) run.  The
    // store's header pins the campaign spec the shards were computed
    // under: resuming with a different campaign fails loudly instead of
    // silently mixing two experiments' counts.  (Execution knobs are
    // not part of the hash — stores stay resumable at any jobs/shards/
    // checkpoints setting.)
    std::map<ShardKey, ShardCounts> checkpointed;
    bool store_exists = false;
    bool backfill_header = false;
    if (spec.resume && !spec.storePath.empty()) {
        const auto load0 = std::chrono::steady_clock::now();
        std::ifstream in(spec.storePath);
        if (in) {
            store_exists = true;
            // Header records are recognised at any line, not just the
            // first: a run killed before its header flushed — or a
            // legacy store that was back-filled on a previous resume —
            // must not lose the guard.
            std::vector<StoreHeader> headers;
            for (ShardRecord& r : readShardStore(in, &headers))
                checkpointed[std::move(r.key)] = r.counts;
            for (const StoreHeader& header : headers) {
                if (header.specHash != spec.campaignHashHex()) {
                    fatal("shard store '", spec.storePath,
                          "' was written under campaign spec ",
                          header.specHash, " but the current spec is ",
                          spec.campaignHashHex(),
                          "; refusing to resume a mismatched store "
                          "(use a fresh --store to start over)");
                }
            }
            if (headers.empty()) {
                warn("shard store '", spec.storePath,
                     "' has no spec header (older version, or a run "
                     "killed before the header flushed); resuming with "
                     "per-key matching only and stamping the current "
                     "spec so future resumes are verified again");
                backfill_header = true;
            }
        }
        progress.resumeLoadSeconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          load0)
                .count();
    }

    std::ofstream store;
    if (!spec.storePath.empty()) {
        // A killed run can leave a truncated tail line without a newline;
        // start appending on a fresh line so the glued bytes stay one
        // (skippable) broken line instead of corrupting a new record.
        bool needs_newline = false;
        if (spec.resume && store_exists) {
            std::ifstream probe(spec.storePath, std::ios::binary);
            if (probe && probe.seekg(-1, std::ios::end)) {
                char last = '\n';
                probe.get(last);
                needs_newline = last != '\n';
            }
        }
        const bool fresh_store = !spec.resume || !store_exists;
        store.open(spec.storePath, spec.resume
                                       ? std::ios::out | std::ios::app
                                       : std::ios::out | std::ios::trunc);
        if (!store) {
            fatal("cannot open shard store '", spec.storePath,
                  "' for writing");
        }
        if (needs_newline)
            store << '\n';
        if (fresh_store || backfill_header) {
            StoreHeader header;
            header.specHash = spec.campaignHashHex();
            header.specJson = spec.toJsonString();
            writeStoreHeader(store, header);
            store << '\n';
            store.flush();
        }
    }

    // Canonical cells: duplicate grid entries collapse into one.
    std::map<std::pair<std::string, GpuModel>, std::size_t> canonical;
    std::vector<std::size_t> cell_of_grid(progress.cells);
    std::vector<std::unique_ptr<Cell>> cells; // stable addresses
    for (std::size_t w = 0; w < result.workloads.size(); ++w) {
        for (std::size_t g = 0; g < num_gpus; ++g) {
            const auto [it, fresh] = canonical.try_emplace(
                std::make_pair(result.workloads[w], result.gpus[g]),
                cells.size());
            cell_of_grid[w * num_gpus + g] = it->second;
            if (!fresh)
                continue;
            auto cell = std::make_unique<Cell>();
            cell->workload = result.workloads[w];
            cell->gpu = result.gpus[g];
            cell->config = &gpuConfig(cell->gpu);
            cells.push_back(std::move(cell));
        }
    }

    // One campaign per (cell, structure).  decomposeStudy emits each
    // campaign's shards contiguously and in injection order, so
    // grouping is a linear scan.
    std::vector<CampaignExec> campaigns;
    for (const ShardKey& key : decomposeStudy(spec)) {
        const std::size_t ci =
            canonical.at(std::make_pair(key.workload, key.gpu));
        if (campaigns.empty() || campaigns.back().cellIndex != ci ||
            campaigns.back().structure != key.structure) {
            CampaignExec c;
            c.cellIndex = ci;
            c.structure = key.structure;
            campaigns.push_back(std::move(c));
        }
        campaigns.back().shards.push_back(key);
    }

    ExecOptions opts;
    opts.plan = spec.plan;
    opts.jobs = spec.jobs;
    opts.checkpoints = spec.checkpoints;
    opts.behavior = spec.faultBehavior;
    opts.workloadSeed = spec.workloadSeed;
    opts.verbose = spec.verbose;
    executeCampaigns(opts, cells, campaigns, checkpointed, store,
                     strprintf("%zu workloads x %zu GPUs",
                               result.workloads.size(), num_gpus),
                     progress);

    std::map<std::size_t, std::map<TargetStructure, const CampaignExec*>>
        campaigns_by_cell;
    for (const CampaignExec& c : campaigns)
        campaigns_by_cell[c.cellIndex][c.structure] = &c;

    // Assembly — pure arithmetic over integer counts, so the reports are
    // bit-identical for any jobs/shards/resume configuration.  Duplicate
    // grid entries replicate their canonical cell's report (identical
    // seeds make that the result a recomputation would produce).
    result.reports.resize(progress.cells);
    for (std::size_t pos = 0; pos < progress.cells; ++pos) {
        const std::size_t ci = cell_of_grid[pos];
        assembleReport(result.reports[pos], *cells[ci], spec,
                       campaigns_by_cell[ci]);
    }

    const auto t1 = std::chrono::steady_clock::now();
    progress.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
    if (spec.verbose) {
        inform("study: ", progress.executedShards, " shards executed, ",
               progress.resumedShards, " resumed from store (loaded in ",
               strprintf("%.3f", progress.resumeLoadSeconds), " s), ",
               progress.prunedShards, " pruned by early stopping, ",
               strprintf("%.2f", progress.wallSeconds), " s wall (",
               strprintf("%.2f", progress.shardBusySeconds),
               " worker-s injecting, ", progress.injectionsExecuted,
               " injections at ",
               strprintf("%.1f", progress.injectionsPerSecond()), "/s, ",
               progress.checkpointPacks, " checkpoint packs built in ",
               strprintf("%.2f", progress.packBuildSeconds),
               " worker-s, at most ", progress.peakLivePacks,
               " alive at once, peak ", progress.peakPackBytes / 1024,
               " KiB delta-encoded vs ", progress.peakPackFullBytes / 1024,
               " KiB full)");
    }
    if (progress_out)
        *progress_out = progress;
    return result;
}

CampaignResult
runCampaign(const GpuConfig& config, const WorkloadInstance& instance,
            TargetStructure structure, const CampaignConfig& cc)
{
    // The cell is caller-built, so no workload seed applies, and a
    // standalone campaign keeps no store.
    ExecOptions opts;
    opts.plan = cc.plan;
    opts.jobs = resolvedJobs(cc.numThreads);
    opts.checkpoints = cc.checkpoints;
    opts.behavior = cc.shape.behavior;

    std::vector<std::unique_ptr<Cell>> cells;
    cells.push_back(std::make_unique<Cell>());
    cells.front()->config = &config;
    cells.front()->instance = &instance;

    CampaignResult result;
    result.structure = structure;
    result.confidence = cc.plan.confidence;

    std::vector<CampaignExec> campaigns;
    const std::size_t cap = cc.plan.resolvedMaxInjections();
    if (cap > 0) {
        if (cc.keepRecords)
            result.records.resize(cap);
        CampaignExec c;
        c.structure = structure;
        c.records = cc.keepRecords ? &result.records : nullptr;
        // Every look is cut into the same number of shards: the executor
        // issues one look at a time, so shards sized for the whole cap
        // would leave a short early look to one worker.
        const std::uint64_t shards = opts.jobs * kShardsPerWorker;
        for (const auto& [begin, end] : campaignShardRanges(
                 cc.plan, [shards](std::uint64_t span) {
                     return (span + shards - 1) / shards;
                 })) {
            ShardKey key;
            key.structure = structure;
            key.injectionBegin = begin;
            key.injectionEnd = end;
            // The caller's seed is the campaign seed itself; a study
            // derives one per structure instead.
            key.campaignSeed = cc.seed;
            key.behavior = cc.shape.behavior;
            key.pattern = cc.shape.pattern;
            c.shards.push_back(std::move(key));
        }
        campaigns.push_back(std::move(c));
    }

    StudyProgress progress;
    std::ofstream no_store;
    executeCampaigns(opts, cells, campaigns, {}, no_store, "", progress);

    result.ace = std::move(cells.front()->ace);
    if (!campaigns.empty()) {
        const CampaignExec& c = campaigns.front();
        result.injections = static_cast<std::size_t>(c.injectionsDone);
        result.masked = static_cast<std::size_t>(c.counts.masked);
        result.sdc = static_cast<std::size_t>(c.counts.sdc);
        result.due = static_cast<std::size_t>(c.counts.due);
        result.wallSeconds = c.counts.busySeconds;
    }
    if (cc.keepRecords)
        result.records.resize(result.injections);
    GPR_ASSERT(result.masked + result.sdc + result.due ==
                   result.injections,
               "campaign accounting mismatch");
    return result;
}

} // namespace gpr
