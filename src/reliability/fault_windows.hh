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
 * overwrites the whole line, so on a cache row — and only there, unlike
 * word-storage allocation — onAlloc counts as a write of every unit it
 * names.  updateIfPresent() (an atomic patching a private L1d copy)
 * overwrites a word without any event, which can only keep a window
 * open.  Cache metadata is excluded: tag, valid and dirty bits act
 * through address comparison (a hit turns into a miss, a writeback is
 * dropped, fabricated or redirected), not through reads, so the
 * injector never queries a metadata unit (see cacheDataUnit()).
 * Control-bit structures (predicate file, SIMT stack) become
 * architecturally visible without any modelled "read" — a flipped PC
 * acts at the next issue — so only registry entries with
 * exactDeadWindows participate; observed() stays conservatively true
 * for every other structure and the injector skips the prefilter for
 * them up front.
 *
 * Value residency (persistent-fault prefilter).  The same read-only-
 * entry argument extends to stuck-at faults: a read-overlay fault never
 * mutates the raw word, so a stuck-at-v fault in a bit is provably
 * Masked iff every golden read of its word at or after the fault cycle
 * already observes the bit equal to v — the forced value then never
 * changes any value entering computation.  Recording, per tracked word
 * and bit, the last golden read cycle that *disagrees* with each forced
 * value collapses this to one threshold per (bit, value):
 * stuckAgreeCycle() returns the first injection cycle from which the
 * fault is provably benign, exact by construction for word-granular
 * storage and conservative (kNeverAgrees) everywhere else.  Only
 * structures whose persistent faults act through a read overlay
 * (PersistenceHook::StorageReadOverlay) record residency: a cache's
 * re-asserted forcing mutates the raw line, so golden reads agreeing
 * with the forced value prove nothing there.  The same
 * threshold is sound for intermittent faults queried with their forced
 * value: inactive phases read the raw (golden) word, so agreement over
 * all reads is sufficient (if slightly conservative).
 */

#ifndef GPR_RELIABILITY_FAULT_WINDOWS_HH
#define GPR_RELIABILITY_FAULT_WINDOWS_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "arch/gpu_config.hh"
#include "sim/observer.hh"
#include "sim/structure_registry.hh"

namespace gpr {

/**
 * Per-structure observability windows, finalised into CSR layout
 * (offsets into one flat interval array) for compact sharing inside a
 * CheckpointPack.
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
     * cache, only when @p word is a data-word unit.  Conservative on a
     * disabled/unknown structure or word (returns true).
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
     * (conservative for disabled windows and for structures without a
     * read-overlay persistence hook, exact otherwise).  Bits must lie
     * within one 32-bit word (the FaultPattern contract).
     */
    Cycle stuckAgreeCycle(TargetStructure structure, std::uint64_t word,
                          unsigned firstBit, unsigned width,
                          bool value) const;

    /** Total recorded intervals (tests / diagnostics). */
    std::size_t intervalCount() const;

  private:
    friend class FaultWindowRecorder;

    /** residencySlot entry: the word was never read (always benign). */
    static constexpr std::uint32_t kResidencyNeverRead = 0xFFFFFFFFu;
    /** residencySlot entry: residency unknown (slot cap overflow). */
    static constexpr std::uint32_t kResidencyUnknown = 0xFFFFFFFEu;
    /** agreeFrom stamp: disagreement too late to represent in 32 bits. */
    static constexpr std::uint32_t kResidencySaturated = 0xFFFFFFFFu;

    struct StructureWindows
    {
        std::vector<std::uint64_t> offsets; ///< words+1 entries (CSR)
        std::vector<Interval> intervals;
        /** Per word: slot index into agreeFrom, or a sentinel above. */
        std::vector<std::uint32_t> residencySlot;
        /** 64 stamps per slot, laid out [value*32 + bit]: the last
         *  disagreeing golden read cycle + 1 (0 = never disagrees). */
        std::vector<std::uint32_t> agreeFrom;
    };

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
 * event.  Each tracked structure keeps
 *  - one WordState per chip word (defining write, newest interval,
 *    residency slot), so an event touches one cache line of per-word
 *    state.  States live in blocks allocated on a block's first event,
 *    so words the run never touches cost nothing;
 *  - one append-only log of (word, interval) entries;
 *  - one ResidencySlot per word read so far, up to a chip-wide cap
 *    (read-overlay structures only, see the file comment).
 * The log and the slots grow in fixed chunks, never copying what they
 * hold.  finalize() builds the CSR FaultWindows from the log with a
 * stable counting sort on the word (log order is time order, so each
 * word's intervals stay in time order) and frees the working set.
 *
 * Residency is kept relative to the newest read.  A slot holds the
 * newest read's value V and stamp S (cycle + 1, saturated to 32 bits)
 * and, per bit b, the stamp D[b] of the last read whose bit b differed
 * from V's.  A read of V' first sets D[b] = S wherever V' and V differ
 * (the read being superseded is the newest one that disagrees with V'
 * there) and leaves the other bits alone (a read disagreeing with V
 * there also disagrees with V'); then V = V', S = its stamp.  So a read
 * writes only the bits that changed.  finalize() expands a slot into
 * the [value*32 + bit] agreeFrom layout: the last read that disagrees
 * with stuck-at-v in bit b is the newest read when V's bit b differs
 * from v (stamp S), else the last read that differed from V there
 * (stamp D[b]).  Both are stamps of that very read, so the expansion
 * is exact.
 */
class FaultWindowRecorder : public SimObserver
{
  public:
    explicit FaultWindowRecorder(const GpuConfig& config);

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
    /** Words per WordState block (a power of two). */
    static constexpr unsigned kBlockBits = 8;
    static constexpr std::size_t kBlockWords = std::size_t{1}
                                               << kBlockBits;

    /** Append-only storage in chunks of 2^12 elements: growth never
     *  moves or copies what is stored. */
    template <typename T>
    class Chunked
    {
      public:
        std::size_t size() const { return size_; }

        T&
        operator[](std::size_t i)
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
        std::uint32_t word = 0; ///< chip-global word
    };

    /** A word's value residency relative to its newest read. */
    struct ResidencySlot
    {
        Word value = 0;          ///< V: the newest read's value
        std::uint32_t stamp = 0; ///< S: the newest read's stamp
        /** D: per bit, the stamp of the last read whose bit differed
         *  from V's (0 = none). */
        std::array<std::uint32_t, 32> differed{};
    };

    struct Tracker
    {
        /** False for structures without exact windows (control bits):
         *  their events are ignored and no intervals are recorded. */
        bool tracked = false;
        /** Cache rows: onAlloc is a line refill, a write of each unit. */
        bool allocWrites = false;
        /** Read-overlay persistence: record value residency slots. */
        bool residency = false;
        std::uint32_t wordsPerSm = 0; ///< per instance
        std::size_t words = 0;        ///< chip-wide
        /** kBlockWords states per block; null until first touched. */
        std::vector<std::unique_ptr<WordState[]>> blocks;
        Chunked<LogEntry> log;
        Chunked<ResidencySlot> slots;
    };

    Tracker& tracker(TargetStructure s)
    {
        return trackers_[static_cast<std::size_t>(s)];
    }

    /** Chip-global word of instance-relative @p word. */
    static std::size_t chipWord(const Tracker& t, SmId sm,
                                std::uint32_t word);

    /** The state of chip-global word @p w of @p t, allocating its
     *  block on first touch. */
    static WordState& wordState(Tracker& t, std::size_t w);

    std::array<Tracker, kNumTargetStructures> trackers_;
    std::size_t total_intervals_ = 0;
    std::size_t total_residency_slots_ = 0;
};

} // namespace gpr

#endif // GPR_RELIABILITY_FAULT_WINDOWS_HH
