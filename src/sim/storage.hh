/**
 * @file
 * Bit-accurate word storage with block-granular allocation — the model
 * behind the vector/scalar register files and the LDS of one SM.
 */

#ifndef GPR_SIM_STORAGE_HH
#define GPR_SIM_STORAGE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bitutils.hh"
#include "common/hash.hh"
#include "common/types.hh"
#include "sim/state_page.hh"

namespace gpr {

/**
 * A fixed-size array of 32-bit words plus a first-fit range allocator.
 * Values of unallocated words persist (like real SRAM), which matters for
 * fault injection: a flip landing in free space stays until the space is
 * reallocated — and allocation is modelled as making contents undefined,
 * so such flips are architecturally masked.
 */
class WordStorage
{
  private:
    struct Range
    {
        std::uint32_t base;
        std::uint32_t count;
    };

  public:
    explicit WordStorage(std::uint32_t num_words);

    std::uint32_t size() const
    {
        return static_cast<std::uint32_t>(words_.size());
    }

    Word read(std::uint32_t index) const;
    void write(std::uint32_t index, Word value);

    /** Flip one bit; @p bit_index addresses the structure bit-linearly. */
    void flipBitAt(BitIndex bit_index);

    /**
     * Bind a stuck-bit overlay to word @p word: while enabled, reads of
     * that word see the bits of @p mask forced to the corresponding bits
     * of @p value.  The overlay is read-side only — writes store the raw
     * value underneath — so an intermittent fault that deactivates
     * (setStuckEnabled(false)) re-exposes whatever the program last
     * wrote, which is exactly the marginal-cell retention semantics.
     * One overlay per storage; binding starts disabled.
     */
    void setStuckBits(std::uint32_t word, Word mask, Word value);

    /** Toggle the bound overlay (persistent faults tick this per cycle). */
    void setStuckEnabled(bool enabled);

    /** Drop the overlay entirely. */
    void clearStuck();

    /**
     * First-fit allocation of @p count contiguous words.
     * Returns the base index, or nullopt if no hole fits.
     */
    std::optional<std::uint32_t> allocate(std::uint32_t count);

    /** Release a range previously returned by allocate(). */
    void release(std::uint32_t base, std::uint32_t count);

    /** Words currently allocated (for occupancy accounting). */
    std::uint32_t allocatedWords() const { return allocated_words_; }

    /**
     * Fold the full storage state into @p h: every word's contents
     * (allocated *and* free — free words persist and may be observed by
     * a later block that reads before writing, so they are part of the
     * architecturally visible state) plus the free list (fragmentation
     * steers future allocations, hence future behaviour).  The
     * stuck-bit overlay is NOT hashed: the raw word is the retained
     * state (what an intermittent fault re-exposes when inactive).
     */
    void hashInto(StateHash& h) const;

    // --- Delta/CoW checkpoint support ------------------------------------
    // The page-granular half of the checkpoint engine: a baseline-
    // anchored storage reverts to its baseline by copying only the pages
    // written since markCleanForRestore(), and a delta checkpoint stores
    // only those pages.  The free list, allocation counter and stuck
    // overlay are tiny and handled unconditionally.

    /** Declare the current state the revert/capture baseline. */
    void
    markCleanForRestore()
    {
        pages_.markCleanForRestore();
    }

    /**
     * Revert to @p baseline (same size): copy back every page written
     * since markCleanForRestore(), adopt the baseline's free list and
     * allocation counter, and drop any stuck-bit overlay.  Equivalent to
     * a full copy assignment from @p baseline, provided this storage was
     * content-identical to it at the last markCleanForRestore().
     */
    void revertTo(const WordStorage& baseline);

    /**
     * One storage's share of a delta checkpoint: the pages differing
     * from the baseline, plus the full free list and allocation counter
     * (the allocator state is a handful of ranges — never worth paging).
     */
    struct Delta
    {
        StorageDelta pages;
        std::vector<Range> freeList;
        std::uint32_t allocatedWords = 0;

        std::size_t
        bytes() const
        {
            return pages.bytes() + freeList.size() * sizeof(Range);
        }
    };

    /** Encode the pages differing from @p baseline into @p out (the
     *  dirty set is consulted, then filtered by content), plus the full
     *  free list and allocation counter (small, never delta'd). */
    void captureDelta(const WordStorage& baseline, Delta& out) const;

    /** Overwrite the delta's pages and adopt its free list (the storage
     *  must currently match the baseline the delta was recorded
     *  against). */
    void applyDelta(const Delta& delta);

    /** Resident footprint of the full storage (pack accounting). */
    std::size_t
    bytes() const
    {
        return words_.size() * sizeof(Word) +
               free_list_.size() * sizeof(Range);
    }

  private:
    std::vector<Word> words_;
    std::vector<Range> free_list_; ///< sorted by base, coalesced
    std::uint32_t allocated_words_ = 0;
    PageTracker pages_;

    // Stuck-bit overlay (persistent-fault hook; see setStuckBits).
    std::uint32_t stuck_word_ = 0;
    Word stuck_mask_ = 0;
    Word stuck_value_ = 0;
    bool stuck_enabled_ = false;
};

} // namespace gpr

#endif // GPR_SIM_STORAGE_HH
