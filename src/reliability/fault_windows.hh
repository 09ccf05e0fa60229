/**
 * @file
 * Exact golden-run observability windows — the zero-simulation half of
 * the checkpoint-restore injection engine.
 *
 * A single-bit flip only enters computation through a *read* of its
 * word: every other event (writes overwrite the whole word,
 * alloc/free/dispatch move metadata) leaves the injected trajectory
 * bit-identical to the golden run.  So a flip applied at the start of
 * cycle C in word W changes the outcome only if the golden run reads W
 * at some cycle r >= C whose defining write precedes C — i.e. only if
 * C lies inside one of W's live intervals [w, r] (w = last write
 * strictly before the read, with w advanced past a write's own cycle
 * since the flip lands at cycle *start* and the write lands mid-cycle).
 *
 * Recording one merged, disjoint interval list per word during the
 * golden pass therefore yields an exact O(log k) pre-classification:
 * outside every window the fault is Masked with *no* simulation at all.
 * Unlike ACE lifetime accounting this is not conservative-by-design —
 * allocation does NOT close a window (a later block that read a word
 * before writing it would observe the stale flipped value, so such
 * reads extend windows across alloc boundaries) — which is what keeps
 * the classification bit-identical to a from-scratch injected run.
 *
 * The read-only-entry argument needs every consumer of a stored value
 * to report a read of it first.  Word-granular storage does, and so do
 * the data words of the cache arrays: a data word's value leaves the
 * array only through CacheModel::read() hits, fetchInst() and the
 * writeback of a line (a dirty victim's eviction, or flushDirty() at the
 * end of the kernel), and each reports onRead for the word before using
 * the value.  A store overwrites the word (onWrite) and a line refill
 * overwrites the whole line, so on a cache row, unlike word-storage
 * allocation, onAlloc counts as a write of every unit it names.
 * updateIfPresent() (an atomic patching a private L1d copy) overwrites
 * a word without any event, which can only keep a window open.  Cache
 * metadata is excluded: tag, valid and dirty bits act through address
 * comparison (a hit turns into a miss, a writeback is dropped,
 * fabricated or redirected), not through reads, so the injector never
 * queries a metadata unit (see cacheDataUnit()).
 *
 * The control rows rest on the same argument, unit by unit: a predicate
 * register of a warp slot, and per slot the SIMT target's PC/mask unit
 * and each hardware stack entry.  A guard (BRA and EXIT conditions
 * included), SELP and SETP's merge of guard-false lanes each report
 * onRead of their predicate register before using it.  The PC and the
 * active/exited masks are read at every issue (onRead, then onWrite as
 * the PC advances); between issues, SmCore::issueCycle() consults the
 * PC only of a Ready warp, which issues again, and so reads the unit,
 * inside the same window.  A stack entry is read at its pop, and
 * SmCore::mutateBit() ignores cells at or above the stack size, so a
 * flip there changes nothing.  Warp dispatch rewrites all of a slot's
 * control state, so onAlloc on a control row is a write of every unit
 * it names, as on a cache row.  Gpu::run dispatches the kernel's first
 * blocks before a cycle-0 flip lands, so an allocation at cycle 0
 * erases no flip.  A bit group straddling two units has no one window
 * and is never prefiltered (deadWindowUnit() in fault_injector.cc).
 *
 * Value residency (persistent-fault prefilter).  The same read-only-
 * entry argument extends to stuck-at faults: a read-overlay fault never
 * mutates the raw word, so a stuck-at-v fault in a bit is provably
 * Masked iff every golden read of its word at or after the fault cycle
 * already observes the bit equal to v — the forced value then never
 * changes any value entering computation.  So per (bit, value) one
 * threshold decides it, the last golden read cycle that *disagrees*
 * with the forced value: stuckAgreeCycle() returns the first injection
 * cycle from which the fault is provably benign, exact by construction
 * for word-granular storage and conservative (kNeverAgrees) everywhere
 * else.  Only structures whose persistent faults act through a read
 * overlay (PersistenceHook::StorageReadOverlay) record residency: a
 * cache's re-asserted forcing mutates the raw line, so golden reads
 * agreeing with the forced value prove nothing there.  The same
 * threshold is sound for intermittent faults queried with their forced
 * value: inactive phases read the raw (golden) word, so agreement over
 * all reads is sufficient (if slightly conservative).
 *
 * What a checkpoint pack records.  A transient fault only ever queries
 * observed(), a persistent one (stuck-at or intermittent) only
 * stuckAgreeCycle().  So a pack records the windows only when one of
 * its injections' behaviors is transient, residency only when one is
 * persistent, and both only for the structures its injections target.
 * The half or structure it leaves out answers conservatively
 * (observed() true, kNeverAgrees): recording less than the injections
 * query can cost speed, never change a verdict.
 *
 * Layout.  A run touches a small part of a full-size chip, so a pack
 * indexes only the 256-unit blocks (UnitTable's first-touch blocks) that
 * saw an event: a per-block map gives each touched block an ordinal,
 * and the interval CSR and the per-unit residency slot numbers are laid
 * out over touched blocks in ordinal order.  A unit of an untouched
 * block saw no event, so it is never observed and never read.
 */

#ifndef GPR_RELIABILITY_FAULT_WINDOWS_HH
#define GPR_RELIABILITY_FAULT_WINDOWS_HH

#include <array>
#include <cstdint>
#include <vector>

#include "arch/gpu_config.hh"
#include "reliability/unit_table.hh"
#include "sim/fault_model.hh"
#include "sim/observer.hh"
#include "sim/structure_registry.hh"

namespace gpr {

/**
 * Per-structure observability windows and value residency of one golden
 * run, finalised for compact sharing inside a CheckpointPack.  Each
 * structure holds what its pack recorded (see the file comment): the
 * windows as a CSR (offsets into one flat interval array) over its
 * touched units, and the residency as a slot number per touched unit
 * into the recorder's own slots.
 */
class FaultWindows
{
  public:
    struct Interval
    {
        Cycle begin = 0; ///< first start-of-cycle the flip is observable
        Cycle end = 0;   ///< last such cycle (inclusive)
    };

    /** True when windows were recorded (and not discarded by the
     *  interval-count safety cap). */
    bool enabled() const { return enabled_; }

    /**
     * Would a flip applied at the start of @p cycle in chip-global
     * @p word (ACE unit) of @p structure ever be read before being
     * overwritten?  False means the fault is exactly Masked — for a
     * cache, only when @p word is a data-word unit.  Conservative
     * (returns true) on disabled windows, on a structure whose windows
     * were not recorded and on a word past the structure's size.
     */
    bool observed(TargetStructure structure, std::uint64_t word,
                  Cycle cycle) const;

    /** stuckAgreeCycle() result meaning "never provably benign". */
    static constexpr Cycle kNeverAgrees = ~Cycle{0};

    /**
     * First cycle C such that an always-forced stuck-at-@p value fault
     * in bits [@p firstBit, @p firstBit + @p width) of chip-global
     * @p word of @p structure, injected at any cycle >= C, is provably
     * Masked: every golden read of the word at or after C observes all
     * the faulted bits equal to @p value.  0 means the word is never
     * read (always benign); kNeverAgrees means no such cycle is known
     * (conservative for disabled windows, for a structure whose
     * residency was not recorded or has no read-overlay persistence
     * hook, and for a word past the structure's size; exact otherwise).
     * Bits must lie within one 32-bit word (the FaultPattern contract).
     */
    Cycle stuckAgreeCycle(TargetStructure structure, std::uint64_t word,
                          unsigned firstBit, unsigned width,
                          bool value) const;

    /** Total recorded intervals (tests / diagnostics). */
    std::size_t intervalCount() const;

    /** Bytes the finalised windows and residency hold (a pack's share
     *  of memory beside its checkpoints). */
    std::size_t bytes() const;

  private:
    friend class FaultWindowRecorder;

    /** Slot number of a unit that was never read (always benign). */
    static constexpr std::uint32_t kResidencyNeverRead = 0xFFFFFFFFu;
    /** Slot number of a unit whose residency is unknown (slot cap
     *  overflow). */
    static constexpr std::uint32_t kResidencyUnknown = 0xFFFFFFFEu;
    /** Residency stamp: disagreement too late to represent in 32 bits. */
    static constexpr std::uint32_t kResidencySaturated = 0xFFFFFFFFu;
    /** blockOrdinal entry of a block the run never touched. */
    static constexpr std::uint32_t kUntouchedBlock = 0xFFFFFFFFu;
    /** touchedIndex() of a unit in an untouched block. */
    static constexpr std::size_t kUntouchedUnit = ~std::size_t{0};

    /** Append-only storage in chunks of 2^12 elements: growth never
     *  moves or copies what is stored, and a finalised pack takes over
     *  the recorder's chunks as they are. */
    template <typename T>
    class Chunked
    {
      public:
        std::size_t size() const { return size_; }
        std::size_t bytes() const { return size_ * sizeof(T); }

        T&
        operator[](std::size_t i)
        {
            return chunks_[i >> kChunkBits][i & (kChunkSize - 1)];
        }

        const T&
        operator[](std::size_t i) const
        {
            return chunks_[i >> kChunkBits][i & (kChunkSize - 1)];
        }

        T&
        append()
        {
            if (size_ % kChunkSize == 0) {
                chunks_.emplace_back();
                chunks_.back().reserve(kChunkSize);
            }
            ++size_;
            return chunks_.back().emplace_back();
        }

        const std::vector<std::vector<T>>& chunks() const { return chunks_; }

      private:
        static constexpr unsigned kChunkBits = 12;
        static constexpr std::size_t kChunkSize = std::size_t{1}
                                                  << kChunkBits;
        std::vector<std::vector<T>> chunks_;
        std::size_t size_ = 0;
    };

    /**
     * A word's value residency relative to its newest read: the newest
     * read's value V and stamp S (cycle + 1, saturated to 32 bits) and,
     * per bit b, the stamp D[b] of the last read whose bit b differed
     * from V's (0 = none).  The last read that disagrees with stuck-at-v
     * in bit b is the newest read when V's bit b differs from v (stamp
     * S), else the last read that differed from V there (stamp D[b]);
     * stuckAgreeCycle() answers from that directly.
     */
    struct ResidencySlot
    {
        Word value = 0;          ///< V
        std::uint32_t stamp = 0; ///< S
        std::array<std::uint32_t, 32> differed{}; ///< D
    };

    struct StructureWindows
    {
        /** Chip-wide units; 0 when the structure was not recorded. */
        std::uint64_t units = 0;
        bool windows = false;   ///< the intervals were recorded
        bool residency = false; ///< the residency was recorded
        /** Per 256-unit block: its ordinal among the touched blocks, or
         *  kUntouchedBlock.  Touched unit u sits at index
         *  ordinal * 256 + u % 256 of the per-unit arrays below. */
        std::vector<std::uint32_t> blockOrdinal;
        /** Touched units + 1 entries (CSR), with windows only. */
        std::vector<std::uint32_t> offsets;
        std::vector<Interval> intervals;
        /** Per touched unit, with residency only: index into slots, or
         *  a residency sentinel above. */
        std::vector<std::uint32_t> residencySlot;
        Chunked<ResidencySlot> slots;
    };

    /** Index of chip-global @p word of @p w in its per-unit arrays, or
     *  kUntouchedUnit; @p word must be below w.units. */
    static std::size_t touchedIndex(const StructureWindows& w,
                                    std::uint64_t word);

    const StructureWindows&
    forStructure(TargetStructure s) const
    {
        return windows_[static_cast<std::size_t>(s)];
    }

    std::array<StructureWindows, kNumTargetStructures> windows_;
    bool enabled_ = false;
};

/**
 * The SimObserver that records windows during one golden pass.
 *
 * Events arrive in nondecreasing cycle order per word, so a read either
 * extends its word's newest interval or opens a new one: O(1) per
 * event.  Each recorded structure keeps
 *  - one WordState per chip word (defining write, newest interval,
 *    residency slot), so an event touches one cache line of per-word
 *    state.  States live in a UnitTable, allocated in blocks on a
 *    block's first event, so words the run never touches cost nothing;
 *  - with windows, one append-only log of (word, interval) entries;
 *  - with residency, one ResidencySlot per word read so far, up to a
 *    chip-wide cap (read-overlay structures only, see the file comment).
 * A structure recorded for residency alone ignores writes and
 * allocations, which move no residency.  The log and the slots grow in
 * fixed chunks, never copying what they hold.
 *
 * A read of V' updates its word's slot (FaultWindows::ResidencySlot)
 * in place: it first sets D[b] = S wherever V' and V differ (the read
 * being superseded is the newest one that disagrees with V' there) and
 * leaves the other bits alone (a read disagreeing with V there also
 * disagrees with V'); then V = V', S = its stamp.  So a read writes
 * only the bits that changed.
 *
 * finalize() numbers the touched blocks, builds the CSR over their
 * units from the log with a stable counting sort on the unit (log order
 * is time order, so each word's intervals stay in time order), hands
 * the slots over as they are and frees the working set.
 */
class FaultWindowRecorder : public SimObserver
{
  public:
    /** Record for @p structures only, and only the halves the fault
     *  @p behaviors query: windows if one is transient, residency if
     *  one is persistent.  Everything left out answers conservatively
     *  (observed() true, kNeverAgrees). */
    FaultWindowRecorder(const GpuConfig& config,
                        const std::vector<TargetStructure>& structures,
                        const std::vector<FaultBehavior>& behaviors =
                            allFaultBehaviors());

    void onRead(TargetStructure structure, SmId sm, std::uint32_t word,
                Word value, Cycle cycle) override;
    void onWrite(TargetStructure structure, SmId sm, std::uint32_t word,
                 Cycle cycle) override;
    void onAlloc(TargetStructure structure, SmId sm, std::uint32_t first,
                 std::uint32_t count, Cycle cycle) override;

    /** Flatten into @p out; the recorder is spent afterwards. */
    void finalize(FaultWindows& out);

  private:
    /** WordState::newest of a word without intervals. */
    static constexpr std::uint32_t kNoInterval = 0xFFFFFFFFu;

    /** Everything one event reads or writes about its word. */
    struct WordState
    {
        Cycle lastWrite = 0;                ///< next observable start cycle
        std::uint32_t newest = kNoInterval; ///< log index of newest interval
        /** Index into slots, or a FaultWindows residency sentinel. */
        std::uint32_t slot = FaultWindows::kResidencyNeverRead;
    };

    struct LogEntry
    {
        FaultWindows::Interval interval;
        /** Chip-global word; finalize() turns it into the word's index
         *  among the touched units. */
        std::uint32_t word = 0;
    };

    struct Tracker
    {
        /** Record intervals (some behavior is transient). */
        bool windows = false;
        /** Cache and control rows with windows: onAlloc is a line
         *  refill or a warp dispatch, a write of each unit. */
        bool allocWrites = false;
        /** Record value residency slots (some behavior is persistent,
         *  and the structure has a read-overlay persistence hook). */
        bool residency = false;
        UnitTable<WordState> words; ///< one state per chip word
        FaultWindows::Chunked<LogEntry> log;
        FaultWindows::Chunked<FaultWindows::ResidencySlot> slots;

        /** False for structures left out of the recording: their
         *  events are ignored. */
        bool recorded() const { return windows || residency; }
    };

    Tracker& tracker(TargetStructure s)
    {
        return trackers_[static_cast<std::size_t>(s)];
    }

    std::array<Tracker, kNumTargetStructures> trackers_;
    std::size_t total_intervals_ = 0;
    std::size_t total_residency_slots_ = 0;
};

} // namespace gpr

#endif // GPR_RELIABILITY_FAULT_WINDOWS_HH
