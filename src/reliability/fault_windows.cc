#include "reliability/fault_windows.hh"

#include <algorithm>

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace gpr {
namespace {

/**
 * Safety cap on recorded intervals (~1 GB of windows at 16 B each
 * would be far past it).  A pathological run that exceeds it simply
 * loses the prefilter — observed() turns conservative — while the
 * checkpoint/hash engine keeps working.
 */
constexpr std::size_t kMaxIntervals = std::size_t{1} << 24;

/**
 * Safety cap on value-residency slots (256 B of agreeFrom stamps each —
 * 64 MB at the cap).
 * Words past the cap fall back to kResidencyUnknown, i.e. the
 * stuck-at prefilter turns conservative for them individually while
 * every word below the cap keeps its exact thresholds.
 */
constexpr std::size_t kMaxResidencySlots = std::size_t{1} << 18;

} // namespace

bool
FaultWindows::observed(TargetStructure structure, std::uint64_t word,
                       Cycle cycle) const
{
    if (!enabled_)
        return true;
    const StructureWindows& w = forStructure(structure);
    if (word + 1 >= w.offsets.size())
        return true; // unknown structure/word: stay conservative
    const auto begin = w.intervals.begin() +
                       static_cast<std::ptrdiff_t>(w.offsets[word]);
    const auto end = w.intervals.begin() +
                     static_cast<std::ptrdiff_t>(w.offsets[word + 1]);
    // First interval whose end >= cycle; observable iff it started.
    const auto it = std::lower_bound(
        begin, end, cycle,
        [](const Interval& iv, Cycle c) { return iv.end < c; });
    return it != end && it->begin <= cycle;
}

Cycle
FaultWindows::stuckAgreeCycle(TargetStructure structure,
                              std::uint64_t word, unsigned firstBit,
                              unsigned width, bool value) const
{
    GPR_ASSERT(width >= 1 && firstBit + width <= 32,
               "stuck-at bit group must lie within one 32-bit word");
    if (!enabled_)
        return kNeverAgrees;
    const StructureWindows& w = forStructure(structure);
    if (word >= w.residencySlot.size())
        return kNeverAgrees; // unknown structure/word: stay conservative
    const std::uint32_t slot = w.residencySlot[word];
    if (slot == kResidencyNeverRead)
        return 0; // never read: benign at any cycle
    if (slot == kResidencyUnknown)
        return kNeverAgrees;
    const std::uint32_t* base = w.agreeFrom.data() +
                                std::size_t{slot} * 64 + (value ? 32 : 0);
    Cycle worst = 0;
    for (unsigned b = firstBit; b < firstBit + width; ++b) {
        const std::uint32_t stamp = base[b];
        if (stamp == kResidencySaturated)
            return kNeverAgrees;
        worst = std::max<Cycle>(worst, stamp);
    }
    return worst;
}

std::size_t
FaultWindows::intervalCount() const
{
    std::size_t n = 0;
    for (const StructureWindows& w : windows_)
        n += w.intervals.size();
    return n;
}

std::vector<Cycle>
FaultWindows::placeCheckpoints(const GpuConfig& config, Cycle goldenCycles,
                               unsigned budget) const
{
    if (budget == 0 || goldenCycles <= 1)
        return {};

    // Observed-bit density histogram over the golden run.  Bucket k
    // covers cycles [lo[k], lo[k+1]) with lo[k] = k*g/B; all weights live
    // at the bucket granularity, which is plenty for placing a handful
    // of checkpoints.
    const std::size_t kBuckets =
        static_cast<std::size_t>(std::min<Cycle>(512, goldenCycles));
    std::vector<Cycle> lo(kBuckets + 1);
    for (std::size_t k = 0; k <= kBuckets; ++k)
        lo[k] = goldenCycles * k / kBuckets;
    // The bucket of cycle c < g.  c*B/g can land one bucket short of
    // the one lo[] defines, so estimate, then settle against lo[].
    const double buckets_per_cycle =
        static_cast<double>(kBuckets) / static_cast<double>(goldenCycles);
    const auto bucket_of = [&](Cycle c) {
        std::size_t k = std::min(
            kBuckets - 1,
            static_cast<std::size_t>(static_cast<double>(c) *
                                     buckets_per_cycle));
        while (lo[k] > c)
            --k;
        while (lo[k + 1] <= c)
            ++k;
        return k;
    };

    // Weights are integers (observed bit-cycles), so they are summed
    // exactly in integers and converted once: the double each bucket
    // gets does not depend on the order of the sum.  An interval adds
    // its partial first and last buckets directly and marks the buckets
    // it fully covers in a difference array, so the histogram costs
    // O(intervals + buckets) whatever the intervals' lengths.
    std::vector<std::uint64_t> observed_cycles(kBuckets, 0);
    std::vector<std::int64_t> cover_delta(kBuckets + 1, 0);
    std::uint64_t uniform_bits = 0;
    for (const StructureSpec& spec : structureRegistry()) {
        const std::uint64_t bits_per_sm = spec.bitsPerSm(config);
        if (bits_per_sm == 0)
            continue; // structure absent on this chip
        // Cache rows keep uniform weight: their tag, valid and dirty
        // bits have no windows.
        if (enabled_ && spec.exactDeadWindows &&
            spec.kind == StructureKind::WordStorage) {
            // 32 observable bits per word-interval cycle.
            const StructureWindows& w = forStructure(spec.id);
            for (const Interval& iv : w.intervals) {
                const Cycle first = iv.begin;
                const Cycle last = std::min(iv.end, goldenCycles - 1);
                if (first > last)
                    continue;
                const std::size_t kf = bucket_of(first);
                const std::size_t kl = bucket_of(last);
                if (kf == kl) {
                    observed_cycles[kf] += last + 1 - first;
                    continue;
                }
                observed_cycles[kf] += lo[kf + 1] - first;
                observed_cycles[kl] += last + 1 - lo[kl];
                ++cover_delta[kf + 1];
                --cover_delta[kl];
            }
        } else {
            // No prefilter for this structure: every bit needs
            // simulation at every cycle — uniform weight.
            const std::uint64_t instances =
                spec.scope == StructureScope::PerSm ? config.numSms : 1;
            uniform_bits += bits_per_sm * instances;
        }
    }
    std::vector<double> weight(kBuckets);
    std::int64_t covering = 0;
    for (std::size_t k = 0; k < kBuckets; ++k) {
        covering += cover_delta[k];
        const std::uint64_t width = lo[k + 1] - lo[k];
        weight[k] = static_cast<double>(
            32 * (observed_cycles[k] +
                  static_cast<std::uint64_t>(covering) * width) +
            uniform_bits * width);
    }

    // Prefix sums of weight and weight*cycle (bucket midpoints), so the
    // replay cost of serving buckets [a, b) from a checkpoint at the
    // start of bucket a is O(1).
    std::vector<double> s0(kBuckets + 1, 0.0), s1(kBuckets + 1, 0.0);
    for (std::size_t k = 0; k < kBuckets; ++k) {
        const double mid = 0.5 * static_cast<double>(lo[k] + lo[k + 1]);
        s0[k + 1] = s0[k] + weight[k];
        s1[k + 1] = s1[k] + weight[k] * mid;
    }
    const auto segment_cost = [&](std::size_t a, std::size_t b) {
        // Sum over buckets [a, b) of weight * (midpoint - checkpoint).
        return (s1[b] - s1[a]) - static_cast<double>(lo[a]) * (s0[b] - s0[a]);
    };

    // DP: best[m][b] = min cost of buckets [0, b) using the implicit
    // cycle-0 checkpoint plus m placed ones, the m-th at a boundary
    // <= b.  O(budget * B^2) — at most a few million steps.
    const std::size_t m_max =
        std::min<std::size_t>(budget, kBuckets - 1);
    std::vector<double> prev(kBuckets + 1), cur(kBuckets + 1);
    std::vector<std::vector<std::uint32_t>> parent(
        m_max, std::vector<std::uint32_t>(kBuckets + 1, 0));
    for (std::size_t b = 0; b <= kBuckets; ++b)
        prev[b] = segment_cost(0, b);
    for (std::size_t m = 0; m < m_max; ++m) {
        for (std::size_t b = 0; b <= kBuckets; ++b) {
            double best = prev[b]; // skip this checkpoint entirely
            std::uint32_t arg = 0; // 0 encodes "unused"
            for (std::size_t a = 1; a <= b; ++a) {
                const double c = prev[a] + segment_cost(a, b);
                if (c < best) {
                    best = c;
                    arg = static_cast<std::uint32_t>(a);
                }
            }
            cur[b] = best;
            parent[m][b] = arg;
        }
        std::swap(prev, cur);
    }

    // Walk the parents back from the full range.
    std::vector<Cycle> cycles;
    std::size_t b = kBuckets;
    for (std::size_t m = m_max; m-- > 0;) {
        const std::uint32_t a = parent[m][b];
        if (a == 0)
            continue; // this checkpoint did not reduce the cost
        cycles.push_back(lo[a]);
        b = a;
    }
    std::sort(cycles.begin(), cycles.end());
    cycles.erase(std::unique(cycles.begin(), cycles.end()), cycles.end());
    while (!cycles.empty() && cycles.front() == 0)
        cycles.erase(cycles.begin());
    return cycles;
}

FaultWindowRecorder::FaultWindowRecorder(const GpuConfig& config)
{
    for (const StructureSpec& spec : structureRegistry()) {
        if (!spec.exactDeadWindows)
            continue; // control bits: no exact windows exist
        Tracker& t = tracker(spec.id);
        t.tracked = true;
        t.allocWrites = spec.kind == StructureKind::CacheArray;
        t.residency =
            spec.persistenceHook == PersistenceHook::StorageReadOverlay;
        t.wordsPerSm =
            static_cast<std::uint32_t>(spec.aceUnitsPerSm(config));
        t.words = static_cast<std::size_t>(
            structureAceUnitsTotal(config, spec.id));
        t.blocks.resize((t.words + kBlockWords - 1) / kBlockWords);
    }
}

std::size_t
FaultWindowRecorder::chipWord(const Tracker& t, SmId sm, std::uint32_t word)
{
    const std::size_t w =
        static_cast<std::size_t>(sm) * t.wordsPerSm + word;
    GPR_ASSERT(w < t.words, "observer word out of range");
    return w;
}

FaultWindowRecorder::WordState&
FaultWindowRecorder::wordState(Tracker& t, std::size_t w)
{
    std::unique_ptr<WordState[]>& block = t.blocks[w >> kBlockBits];
    if (!block)
        block = std::make_unique<WordState[]>(kBlockWords);
    return block[w & (kBlockWords - 1)];
}

void
FaultWindowRecorder::onRead(TargetStructure structure, SmId sm,
                            std::uint32_t word, Word value, Cycle cycle)
{
    Tracker& t = tracker(structure);
    // Past the interval cap finalize() discards everything, so stop
    // recording (this also keeps log indices within 32 bits).
    if (!t.tracked || total_intervals_ > kMaxIntervals)
        return;
    const std::size_t w = chipWord(t, sm, word);
    WordState& state = wordState(t, w);
    FaultWindows::Interval* newest =
        state.newest == kNoInterval ? nullptr : &t.log[state.newest].interval;
    if (newest != nullptr && state.lastWrite <= newest->end + 1) {
        newest->end = std::max(newest->end, cycle);
    } else {
        state.newest = static_cast<std::uint32_t>(t.log.size());
        LogEntry& e = t.log.append();
        e.interval = {state.lastWrite, cycle};
        e.word = static_cast<std::uint32_t>(w);
        ++total_intervals_;
    }
    if (!t.residency)
        return;

    // Value residency: this read observes `value`, so it disagrees with
    // stuck-at-1 in every 0 bit and with stuck-at-0 in every 1 bit; a
    // fault injected at or before this cycle in those (bit, value)
    // pairs is not provably benign.  The slot records that relative to
    // the newest read (see the class comment).
    const std::uint32_t stamp =
        cycle + 1 >= FaultWindows::kResidencySaturated
            ? FaultWindows::kResidencySaturated
            : static_cast<std::uint32_t>(cycle + 1);
    if (state.slot == FaultWindows::kResidencyNeverRead) {
        if (total_residency_slots_ >= kMaxResidencySlots) {
            state.slot = FaultWindows::kResidencyUnknown;
            return;
        }
        ++total_residency_slots_;
        state.slot = static_cast<std::uint32_t>(t.slots.size());
        ResidencySlot& slot = t.slots.append();
        slot.value = value;
        slot.stamp = stamp;
        return;
    }
    if (state.slot == FaultWindows::kResidencyUnknown)
        return;
    ResidencySlot& slot = t.slots[state.slot];
    for (Word changed = value ^ slot.value; changed != 0;
         changed &= changed - 1) {
        slot.differed[lowestSetBit(changed)] = slot.stamp;
    }
    slot.value = value;
    slot.stamp = stamp;
}

void
FaultWindowRecorder::onWrite(TargetStructure structure, SmId sm,
                             std::uint32_t word, Cycle cycle)
{
    Tracker& t = tracker(structure);
    if (!t.tracked)
        return;
    // A flip lands at a cycle *start*; a write lands mid-cycle and
    // erases any flip from the same cycle, so observability windows
    // opened by later reads begin the following cycle.
    wordState(t, chipWord(t, sm, word)).lastWrite = cycle + 1;
}

void
FaultWindowRecorder::onAlloc(TargetStructure structure, SmId sm,
                             std::uint32_t first, std::uint32_t count,
                             Cycle cycle)
{
    // A cache refill overwrites the whole line.  Word-storage allocation
    // leaves the old contents in place (see the file comment), so it
    // closes no window.
    Tracker& t = tracker(structure);
    if (!t.allocWrites)
        return;
    const std::size_t base = chipWord(t, sm, first);
    GPR_ASSERT(base + count <= t.words, "observer word out of range");
    for (std::uint32_t i = 0; i < count; ++i)
        wordState(t, base + i).lastWrite = cycle + 1;
}

void
FaultWindowRecorder::finalize(FaultWindows& out)
{
    if (total_intervals_ > kMaxIntervals) {
        out.enabled_ = false;
        return;
    }
    for (std::size_t s = 0; s < trackers_.size(); ++s) {
        Tracker& t = trackers_[s];
        FaultWindows::StructureWindows& w = out.windows_[s];

        // CSR by a stable counting sort on the word.  Count each word's
        // intervals into offsets[word + 1], turn the counts into start
        // positions, then place the log in order, bumping offsets[word
        // + 1] as the word's cursor: it ends at the word's end, which
        // is the next word's start.
        w.offsets.assign(t.words + 1, 0);
        for (const auto& chunk : t.log.chunks()) {
            for (const LogEntry& e : chunk)
                ++w.offsets[e.word + 1];
        }
        std::uint64_t start = 0;
        for (std::size_t i = 1; i <= t.words; ++i) {
            const std::uint64_t count = w.offsets[i];
            w.offsets[i] = start;
            start += count;
        }
        w.intervals.resize(start);
        for (const auto& chunk : t.log.chunks()) {
            for (const LogEntry& e : chunk)
                w.intervals[w.offsets[e.word + 1]++] = e.interval;
        }

        // Residency: the per-word slots, then each slot expanded into
        // its 64 agreeFrom stamps (exact, see the class comment).  Left
        // empty without residency, where every word answers
        // kNeverAgrees.
        if (!t.residency) {
            t = Tracker{};
            continue;
        }
        w.residencySlot.assign(t.words, FaultWindows::kResidencyNeverRead);
        for (std::size_t b = 0; b < t.blocks.size(); ++b) {
            if (!t.blocks[b])
                continue;
            const std::size_t first = b * kBlockWords;
            const std::size_t n = std::min(kBlockWords, t.words - first);
            for (std::size_t i = 0; i < n; ++i)
                w.residencySlot[first + i] = t.blocks[b][i].slot;
        }
        w.agreeFrom.resize(t.slots.size() * 64);
        std::uint32_t* base = w.agreeFrom.data();
        for (const auto& chunk : t.slots.chunks()) {
            for (const ResidencySlot& slot : chunk) {
                for (unsigned b = 0; b < 32; ++b) {
                    const bool one = ((slot.value >> b) & 1u) != 0;
                    base[b] = one ? slot.stamp : slot.differed[b];
                    base[32 + b] = one ? slot.differed[b] : slot.stamp;
                }
                base += 64;
            }
        }

        t = Tracker{}; // free the working set
    }
    out.enabled_ = true;
}

} // namespace gpr
