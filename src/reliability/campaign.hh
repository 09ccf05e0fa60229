/**
 * @file
 * Statistical fault-injection campaigns: N independent single-bit flips,
 * uniformly sampled over (structure bit, execution cycle).  This header
 * holds a standalone campaign's description and result, and the seeding
 * scheme every engine shares; runCampaign() (core/orchestrator.hh) runs
 * a campaign as a one-cell call of the study executor.  Per-injection
 * seeds are derived from (campaign seed, injection index), so results
 * are bit-identical regardless of the number of worker threads.
 */

#ifndef GPR_RELIABILITY_CAMPAIGN_HH
#define GPR_RELIABILITY_CAMPAIGN_HH

#include <cstdint>
#include <vector>

#include "reliability/ace.hh"
#include "reliability/fault_injector.hh"
#include "reliability/sampling.hh"

namespace gpr {

struct CampaignConfig
{
    SamplePlan plan = paperSamplePlan();
    std::uint64_t seed = 0xC0FFEE;
    /** Parallel workers; 0 selects std::thread::hardware_concurrency().
     *  The campaign runs on an executor pool of that size, each look
     *  of the plan split into a few shards per worker. */
    unsigned numThreads = 0;
    /** Keep every per-injection record (memory-heavy for big campaigns). */
    bool keepRecords = false;
    /** Checkpoint budget for the checkpoint-restore injection engine:
     *  that many evenly spaced checkpoints, at most kMaxCheckpoints and
     *  one per golden cycle; 0 runs every injection from scratch
     *  (legacy engine, identical counts).  See the README's
     *  checkpoint-engine migration note. */
    unsigned checkpoints = kDefaultCheckpoints;
    /** Fault shape every injection of the campaign carries (target,
     *  bit and cycle stay per-injection samples).  Default = transient
     *  single-bit, the pre-redesign model bit-for-bit. */
    FaultShape shape;
};

struct CampaignResult
{
    TargetStructure structure = TargetStructure::VectorRegisterFile;
    std::size_t injections = 0;
    std::size_t masked = 0;
    std::size_t sdc = 0;
    std::size_t due = 0;

    /** The cell's golden+ACE pass: ACE AVF per structure, and the
     *  golden run's performance & occupancy in ace.goldenStats. */
    AceResult ace;

    /**
     * Aggregate worker-seconds spent on the injection runs (summed busy
     * time across workers — equals wall-clock for a single-threaded
     * campaign, and never double-counts when campaigns run at once).
     */
    double wallSeconds = 0.0;

    /** Confidence level the margins below are quoted at. */
    double confidence = 0.99;

    std::vector<InjectionResult> records; ///< only if keepRecords

    double
    avf() const
    {
        return injections ? static_cast<double>(sdc + due) /
                                static_cast<double>(injections)
                          : 0.0;
    }
    double
    sdcRate() const
    {
        return injections ? static_cast<double>(sdc) /
                                static_cast<double>(injections)
                          : 0.0;
    }
    double
    dueRate() const
    {
        return injections ? static_cast<double>(due) /
                                static_cast<double>(injections)
                          : 0.0;
    }

    /**
     * Error margin around the measured AVF: the Wilson-interval
     * half-width, which stays meaningful (non-zero) even when the
     * campaign observes zero or all failures, unlike the Wald margin.
     */
    double
    errorMargin() const
    {
        if (injections == 0)
            return 0.0;
        return avfInterval().width() / 2.0;
    }

    /** Wilson interval around a rate with @p successes outcomes (the
     *  vacuous [0,1] when the campaign ran no injections). */
    Interval
    rateInterval(std::size_t successes) const
    {
        return wilsonInterval(successes, injections, confidence);
    }

    Interval avfInterval() const { return rateInterval(sdc + due); }
    Interval sdcInterval() const { return rateInterval(sdc); }
    Interval dueInterval() const { return rateInterval(due); }

    /** Largest CI half-width across the three reported rates — the
     *  same statistic the sequential stopping rule tests, so what an
     *  adaptive campaign reports is exactly what it stopped on. */
    double
    achievedMargin() const
    {
        return maxRateHalfWidth(sdc, due, injections, confidence);
    }
};

/**
 * The campaign seeding scheme, shared by every execution engine
 * (standalone campaigns and orchestrated study shards): injection
 * @p index of a campaign seeded with @p campaign_seed draws its fault
 * from Rng(deriveSeed(campaign_seed, index)).  Keeping this in one
 * place is what makes campaign outcomes a pure function of
 * (seed, index) — independent of threads, shards, and resume history.
 */
inline InjectionResult
runIndexedInjection(FaultInjector& injector, TargetStructure structure,
                    std::uint64_t campaign_seed, std::uint64_t index,
                    const FaultShape& shape = {})
{
    Rng rng(deriveSeed(campaign_seed, index));
    return injector.injectRandom(structure, rng, shape);
}

} // namespace gpr

#endif // GPR_RELIABILITY_CAMPAIGN_HH
