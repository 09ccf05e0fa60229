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
 * checkpoint engine keeps working.
 */
constexpr std::size_t kMaxIntervals = std::size_t{1} << 24;
static_assert(kMaxIntervals < 0xFFFFFFFFu,
              "CSR offsets and log indices are 32-bit");

/**
 * Safety cap on value-residency slots (136 B each, value, stamp and 32
 * per-bit stamps — 34 MB at the cap).
 * Words past the cap fall back to kResidencyUnknown, i.e. the
 * stuck-at prefilter turns conservative for them individually while
 * every word below the cap keeps its exact thresholds.
 */
constexpr std::size_t kMaxResidencySlots = std::size_t{1} << 18;

} // namespace

std::size_t
FaultWindows::touchedIndex(const StructureWindows& w, std::uint64_t word)
{
    const std::uint32_t block = w.blockOrdinal[word >> kUnitBlockBits];
    if (block == kUntouchedBlock)
        return kUntouchedUnit;
    return (std::size_t{block} << kUnitBlockBits) |
           (word & (kUnitBlockUnits - 1));
}

bool
FaultWindows::observed(TargetStructure structure, std::uint64_t word,
                       Cycle cycle) const
{
    if (!enabled_)
        return true;
    const StructureWindows& w = forStructure(structure);
    if (!w.windows || word >= w.units)
        return true; // unrecorded or unknown word: stay conservative
    const std::size_t i = touchedIndex(w, word);
    if (i == kUntouchedUnit)
        return false; // no event in the block: never read
    const auto begin =
        w.intervals.begin() + static_cast<std::ptrdiff_t>(w.offsets[i]);
    const auto end =
        w.intervals.begin() + static_cast<std::ptrdiff_t>(w.offsets[i + 1]);
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
    if (!w.residency || word >= w.units)
        return kNeverAgrees; // unrecorded or unknown word: conservative
    const std::size_t i = touchedIndex(w, word);
    const std::uint32_t slot =
        i == kUntouchedUnit ? kResidencyNeverRead : w.residencySlot[i];
    if (slot == kResidencyNeverRead)
        return 0; // never read: benign at any cycle
    if (slot == kResidencyUnknown)
        return kNeverAgrees;
    // The last read disagreeing with stuck-at-value in bit b: the
    // newest read if its bit b differs from value, else the last read
    // that differed from the newest one there (see ResidencySlot).
    const ResidencySlot& r = w.slots[slot];
    Cycle worst = 0;
    for (unsigned b = firstBit; b < firstBit + width; ++b) {
        const bool one = ((r.value >> b) & 1u) != 0;
        const std::uint32_t stamp = one != value ? r.stamp : r.differed[b];
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

std::size_t
FaultWindows::bytes() const
{
    std::size_t b = 0;
    for (const StructureWindows& w : windows_) {
        b += (w.blockOrdinal.size() + w.offsets.size() +
              w.residencySlot.size()) *
                 sizeof(std::uint32_t) +
             w.intervals.size() * sizeof(Interval) + w.slots.bytes();
    }
    return b;
}

FaultWindowRecorder::FaultWindowRecorder(
    const GpuConfig& config, const std::vector<TargetStructure>& structures,
    const std::vector<FaultBehavior>& behaviors)
{
    const bool persistent = std::any_of(behaviors.begin(), behaviors.end(),
                                        faultBehaviorPersistent);
    const bool transient = !std::all_of(behaviors.begin(), behaviors.end(),
                                        faultBehaviorPersistent);
    for (TargetStructure s : structures) {
        const StructureSpec& spec = structureSpec(s);
        Tracker& t = tracker(s);
        t.windows = transient;
        t.allocWrites = transient && spec.kind != StructureKind::WordStorage;
        t.residency = persistent && spec.persistenceHook ==
                                        PersistenceHook::StorageReadOverlay;
        if (t.recorded()) {
            t.words = UnitTable<WordState>(spec.aceUnitsPerSm(config),
                                           structureInstances(config, s));
        }
    }
}

void
FaultWindowRecorder::onRead(TargetStructure structure, SmId sm,
                            std::uint32_t word, Word value, Cycle cycle)
{
    Tracker& t = tracker(structure);
    // Past the interval cap finalize() discards everything, so stop
    // recording (this also keeps log indices within 32 bits).
    if (!t.recorded() || total_intervals_ > kMaxIntervals)
        return;
    const std::size_t w = t.words.index(sm, word);
    WordState& state = t.words[w];
    if (t.windows) {
        FaultWindows::Interval* newest =
            state.newest == kNoInterval ? nullptr
                                        : &t.log[state.newest].interval;
        if (newest != nullptr && state.lastWrite <= newest->end + 1) {
            newest->end = std::max(newest->end, cycle);
        } else {
            state.newest = static_cast<std::uint32_t>(t.log.size());
            LogEntry& e = t.log.append();
            e.interval = {state.lastWrite, cycle};
            e.word = static_cast<std::uint32_t>(w);
            ++total_intervals_;
        }
    }
    if (!t.residency)
        return;

    // Value residency: this read observes `value`, so it disagrees with
    // stuck-at-1 in every 0 bit and with stuck-at-0 in every 1 bit; a
    // fault injected at or before this cycle in those (bit, value)
    // pairs is not provably benign.  The slot records that relative to
    // the newest read (see FaultWindows::ResidencySlot).
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
        FaultWindows::ResidencySlot& slot = t.slots.append();
        slot.value = value;
        slot.stamp = stamp;
        return;
    }
    if (state.slot == FaultWindows::kResidencyUnknown)
        return;
    FaultWindows::ResidencySlot& slot = t.slots[state.slot];
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
    // A write moves only the windows; residency depends on reads alone.
    Tracker& t = tracker(structure);
    if (!t.windows)
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
        if (!t.recorded())
            continue;
        FaultWindows::StructureWindows& w = out.windows_[s];
        w.units = t.words.size();
        w.windows = t.windows;
        w.residency = t.residency;

        // Number the touched blocks in unit order.  forEachTouched()
        // visits every unit of a touched block in order, starting at
        // the block's first unit, so the slot numbers it visits land at
        // ordinal * 256 + u % 256 (only the chip's last block can be
        // partial, and it comes last).
        w.blockOrdinal.assign(
            (w.units + kUnitBlockUnits - 1) >> kUnitBlockBits,
            FaultWindows::kUntouchedBlock);
        std::uint32_t touched = 0;
        t.words.forEachTouched([&](std::size_t u, const WordState& state) {
            if (u % kUnitBlockUnits == 0)
                w.blockOrdinal[u >> kUnitBlockBits] = touched++;
            if (t.residency)
                w.residencySlot.push_back(state.slot);
        });
        w.slots = std::move(t.slots);

        if (t.windows) {
            // CSR by a stable counting sort on the touched unit.  Turn
            // each entry's word into its touched index and count it into
            // offsets[i + 1], turn the counts into start positions, then
            // place the log in order, bumping offsets[i + 1] as the
            // unit's cursor: it ends at the unit's end, which is the next
            // unit's start.
            const std::size_t units = std::size_t{touched}
                                      << kUnitBlockBits;
            w.offsets.assign(units + 1, 0);
            for (std::size_t i = 0; i < t.log.size(); ++i) {
                LogEntry& e = t.log[i];
                e.word = static_cast<std::uint32_t>(
                    FaultWindows::touchedIndex(w, e.word));
                ++w.offsets[e.word + 1];
            }
            std::uint32_t start = 0;
            for (std::size_t i = 1; i <= units; ++i) {
                const std::uint32_t count = w.offsets[i];
                w.offsets[i] = start;
                start += count;
            }
            w.intervals.resize(start);
            for (const auto& chunk : t.log.chunks()) {
                for (const LogEntry& e : chunk)
                    w.intervals[w.offsets[e.word + 1]++] = e.interval;
            }
        }

        t = Tracker{}; // free the working set
    }
    out.enabled_ = true;
}

} // namespace gpr
