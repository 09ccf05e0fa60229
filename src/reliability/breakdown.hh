/**
 * @file
 * Vulnerability breakdowns — the GUFI-style profiling layer above plain
 * AVF numbers: where (bit position) and when (execution phase) do the
 * non-masked faults land?
 *
 * Bit-position profiles explain *why* FI undershoots ACE on float-heavy
 * kernels (low mantissa bits are masked by the output tolerance, sign /
 * exponent / high-mantissa bits are not), and time profiles expose
 * occupancy phases (ramp-up/drain of the block scheduler).
 */

#ifndef GPR_RELIABILITY_BREAKDOWN_HH
#define GPR_RELIABILITY_BREAKDOWN_HH

#include <array>
#include <cstdint>

#include "reliability/campaign.hh"

namespace gpr {

/** Outcome counts for one bucket of a profile. */
struct OutcomeBucket
{
    std::uint32_t masked = 0;
    std::uint32_t sdc = 0;
    std::uint32_t due = 0;

    std::uint32_t total() const { return masked + sdc + due; }
    double
    avf() const
    {
        const std::uint32_t n = total();
        return n ? static_cast<double>(sdc + due) / n : 0.0;
    }
};

/** Number of time-quantile buckets in a profile. */
constexpr std::size_t kTimeBuckets = 10;

/**
 * Profiles derived from a record-keeping campaign:
 *  - byBit[b]: outcomes of injections that flipped bit b (0 = LSB) of a
 *    32-bit word;
 *  - byTime[q]: outcomes of injections in the q-th tenth of the golden
 *    execution.
 */
struct VulnerabilityBreakdown
{
    std::array<OutcomeBucket, 32> byBit{};
    std::array<OutcomeBucket, kTimeBuckets> byTime{};
    OutcomeBucket overall;

    /** AVF of the byte-aligned bit groups (handy summary). */
    double avfBitRange(unsigned lo_bit, unsigned hi_bit) const;
};

/**
 * Build the breakdown from a campaign that was run with
 * CampaignConfig::keepRecords = true.  @p golden_cycles is the campaign's
 * golden runtime (for time bucketing).  Throws FatalError if the campaign
 * kept no records.
 */
VulnerabilityBreakdown computeBreakdown(const CampaignResult& campaign,
                                        Cycle golden_cycles);

} // namespace gpr

#endif // GPR_RELIABILITY_BREAKDOWN_HH
