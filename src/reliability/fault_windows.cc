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

FaultWindowRecorder::FaultWindowRecorder(
    const GpuConfig& config, const std::vector<TargetStructure>& structures)
{
    for (TargetStructure s : structures) {
        const StructureSpec& spec = structureSpec(s);
        Tracker& t = tracker(s);
        t.tracked = true;
        t.allocWrites = spec.kind != StructureKind::WordStorage;
        t.residency =
            spec.persistenceHook == PersistenceHook::StorageReadOverlay;
        t.words = UnitTable<WordState>(spec.aceUnitsPerSm(config),
                                       structureInstances(config, s));
    }
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
    const std::size_t w = t.words.index(sm, word);
    WordState& state = t.words[w];
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
    t.words[t.words.index(sm, word)].lastWrite = cycle + 1;
}

void
FaultWindowRecorder::onAlloc(TargetStructure structure, SmId sm,
                             std::uint32_t first, std::uint32_t count,
                             Cycle cycle)
{
    // A cache refill overwrites the whole line and a warp dispatch the
    // slot's predicates, PC, masks and stack.  Word-storage allocation
    // leaves the old contents in place (see the file comment), so it
    // closes no window.  Gpu::run dispatches the kernel's first blocks
    // before a cycle-0 flip lands, so an allocation at cycle 0 erases
    // no flip; no line is refilled then, since nothing issues at 0.
    Tracker& t = tracker(structure);
    if (!t.allocWrites || cycle == 0)
        return;
    const std::size_t base = t.words.index(sm, first, count);
    for (std::uint32_t i = 0; i < count; ++i)
        t.words[base + i].lastWrite = cycle + 1;
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
        const std::size_t words = t.words.size();
        w.offsets.assign(words + 1, 0);
        for (const auto& chunk : t.log.chunks()) {
            for (const LogEntry& e : chunk)
                ++w.offsets[e.word + 1];
        }
        std::uint64_t start = 0;
        for (std::size_t i = 1; i <= words; ++i) {
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
        w.residencySlot.assign(words, FaultWindows::kResidencyNeverRead);
        t.words.forEachTouched([&](std::size_t i, const WordState& state) {
            w.residencySlot[i] = state.slot;
        });
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
