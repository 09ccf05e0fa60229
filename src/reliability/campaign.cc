#include "reliability/campaign.hh"

// gpr:lint-allow-file(D1): timing whitelist — steady_clock reads feed
// only busy-seconds diagnostics (wallSeconds/phaseStats), never outcome
// counts, hashes, or RNG draws.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

#include "common/logging.hh"
#include "common/worker_pool.hh"

namespace gpr {

OutcomeCounts
runInjectionRange(FaultInjector& injector, TargetStructure structure,
                  std::uint64_t campaign_seed, const FaultShape& shape,
                  std::uint64_t begin, std::uint64_t end,
                  std::vector<InjectionResult>* records)
{
    GPR_ASSERT(begin <= end && (!records || records->size() >= end),
               "injection range outside the record buffer");
    OutcomeCounts counts;
    for (std::uint64_t i = begin; i < end; ++i) {
        const InjectionResult r =
            runIndexedInjection(injector, structure, campaign_seed, i, shape);
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
        if (records)
            (*records)[i] = r;
    }
    return counts;
}

CampaignResult
runCampaign(const GpuConfig& config, const WorkloadInstance& instance,
            TargetStructure structure, const CampaignConfig& cc)
{
    CampaignResult result;
    result.structure = structure;
    result.confidence = cc.plan.confidence;

    const bool adaptive = cc.plan.adaptive();
    // The most injections this campaign can run (adaptive only ever
    // stops earlier).
    const std::size_t cap = cc.plan.resolvedMaxInjections();

    // Golden run once up front (also validates the workload); the same
    // probe then records the campaign's shared checkpoint pack.  That
    // recording pass is a second full golden simulation — unavoidable,
    // since checkpoint spacing needs the golden cycle count before the
    // recording run starts — and it amortises across the campaign's
    // injections the same way the golden run itself does.
    std::shared_ptr<const CheckpointPack> pack;
    {
        FaultInjector probe(config, instance);
        result.goldenStats = probe.goldenRun().stats;
        if (cc.checkpoints > 0 && cap > 0)
            pack = probe.buildCheckpointPack(cc.checkpoints, {structure},
                                             {cc.shape.behavior});
    }

    if (cap == 0)
        return result;

    std::mutex merge_mutex;
    std::vector<InjectionResult> records;
    if (cc.keepRecords)
        records.resize(cap);

    // Run injections [begin, end) and fold their outcomes into the
    // result.  Adaptive campaigns call this once per look of the
    // schedule; fixed campaigns once for the whole plan.
    auto run_range = [&](std::size_t begin, std::size_t end) {
        std::atomic<std::size_t> next{begin};

        auto worker_fn = [&]() {
            // Adopt the shared golden: the reference simulation already
            // ran once for this campaign; workers only need its cycle
            // count (and the checkpoint pack, which is read-only and
            // shared).
            FaultInjector injector(config, instance);
            injector.adoptGoldenCycles(result.goldenStats.cycles);
            if (pack)
                injector.adoptCheckpointPack(pack);
            OutcomeCounts local;

            const auto t0 = std::chrono::steady_clock::now();
            while (true) {
                const std::size_t i = next.fetch_add(1);
                if (i >= end)
                    break;
                const OutcomeCounts chunk = runInjectionRange(
                    injector, structure, cc.seed, cc.shape, i, i + 1,
                    cc.keepRecords ? &records : nullptr);
                local.masked += chunk.masked;
                local.sdc += chunk.sdc;
                local.due += chunk.due;
            }
            const auto t1 = std::chrono::steady_clock::now();

            std::lock_guard<std::mutex> lock(merge_mutex);
            result.masked += local.masked;
            result.sdc += local.sdc;
            result.due += local.due;
            // Busy time, not wall-clock: summing per-worker injection
            // time stays correct when several campaigns run at once
            // (each would otherwise claim the same wall-clock span).
            result.wallSeconds +=
                std::chrono::duration<double>(t1 - t0).count();
            // Per-worker accumulation merged at join: each worker's
            // injector owns its phase stats; the only shared write is
            // this one, under the merge mutex.
            result.phaseStats += injector.phaseStats();
        };

        unsigned workers =
            cc.numThreads
                ? cc.numThreads
                : std::max(1u, std::thread::hardware_concurrency());
        workers = static_cast<unsigned>(
            std::min<std::size_t>(workers, end - begin));

        if (workers <= 1) {
            worker_fn();
            return;
        }
        // An exception must not escape a pool thread: the first one is
        // forwarded to the caller once every worker has stopped.
        WorkerPool pool(workers);
        std::exception_ptr error;
        for (unsigned t = 0; t < workers; ++t) {
            pool.submit([&]() {
                try {
                    worker_fn();
                } catch (...) {
                    std::lock_guard<std::mutex> lock(merge_mutex);
                    if (!error)
                        error = std::current_exception();
                }
            });
        }
        pool.waitIdle();
        if (error)
            std::rethrow_exception(error);
    };

    if (!adaptive) {
        run_range(0, cap);
        result.injections = cap;
    } else {
        // Walk the deterministic look schedule; the decision at each
        // look is a pure function of the cumulative counts, so the
        // stopping point is independent of worker count.
        const double guarded = sequentialConfidence(cc.plan);
        std::size_t done = 0;
        for (std::uint64_t look : sequentialSchedule(cc.plan)) {
            const auto end = static_cast<std::size_t>(look);
            run_range(done, end);
            done = end;
            result.injections = done;
            if (evaluateSequentialStop(result.sdc, result.due, done,
                                       cc.plan, guarded)
                    .stop) {
                break;
            }
        }
    }

    if (cc.keepRecords) {
        records.resize(result.injections);
        result.records = std::move(records);
    }

    GPR_ASSERT(result.masked + result.sdc + result.due ==
                   result.injections,
               "campaign accounting mismatch");
    return result;
}

} // namespace gpr
