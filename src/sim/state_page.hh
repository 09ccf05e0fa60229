/**
 * @file
 * Page-granular dirty tracking and delta encoding over flat word arrays —
 * the shared machinery behind the checkpoint engine's copy-on-write
 * restore path and its incremental (dirty-page) state hashing.
 *
 * Both WordStorage and MemoryImage keep their words in one contiguous
 * std::vector<Word>; "pages" here are purely logical 256-word spans of
 * that vector, so the hot read/write paths keep their flat indexing.  A
 * PageTracker rides alongside the vector and maintains two bitmaps plus
 * a per-page digest cache:
 *
 *  - **restore-dirty**: pages mutated since the tracker was last marked
 *    clean against a baseline.  Reverting to the baseline touches only
 *    these pages; capturing a delta checkpoint copies only these pages.
 *  - **hash-dirty**: pages mutated since their digest was last computed.
 *    Hashing a storage re-digests only these pages and folds the cached
 *    digests of the rest, so the per-interval trajectory hash costs
 *    O(pages touched since the last boundary), not O(state).
 *
 * Page digests are position-salted (the page index is folded in), and
 * the storage-level digest is their sum mod 2^64: order-independent, so
 * it can be rebuilt from the cache without walking words, while two
 * different changed pages can only cancel through a full 64-bit
 * coincidence — the same collision budget the trajectory hash already
 * accepts (see common/hash.hh).
 */

#ifndef GPR_SIM_STATE_PAGE_HH
#define GPR_SIM_STATE_PAGE_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace gpr {

/** Words per logical state page (27 bits of address stay word-flat). */
constexpr std::uint32_t kStatePageWords = 256;

/**
 * Sparse page-set delta of one word array against a baseline array of
 * the same size: ascending page indices plus their full contents,
 * concatenated (the tail page may be short when the array size is not a
 * page multiple — apply/capture derive each page's span from the array
 * size, so no padding is stored).
 */
struct StorageDelta
{
    std::vector<std::uint32_t> pages;
    std::vector<Word> words;

    bool empty() const { return pages.empty(); }

    /** Resident footprint of this delta (accounting, not allocation). */
    std::size_t
    bytes() const
    {
        return pages.size() * sizeof(std::uint32_t) +
               words.size() * sizeof(Word);
    }
};

class PageTracker
{
  public:
    /** Size (or resize) for an array of @p num_words words.  All pages
     *  start restore-dirty and hash-dirty: nothing is known about the
     *  array yet, which is always safe. */
    void
    resize(std::size_t num_words)
    {
        num_words_ = num_words;
        const std::size_t pages = pageCount();
        const std::size_t slots = (pages + 63) / 64;
        restore_dirty_.assign(slots, ~std::uint64_t{0});
        hash_dirty_.assign(slots, ~std::uint64_t{0});
        digest_.assign(pages, 0);
        // Bits past pageCount() in the last slot must stay clear: the
        // bitmap walkers treat every set bit as a real page index.
        if (const std::size_t tail = pages & 63; tail != 0 && slots > 0) {
            const std::uint64_t mask = (~std::uint64_t{0}) >> (64 - tail);
            restore_dirty_.back() &= mask;
            hash_dirty_.back() &= mask;
        }
    }

    std::size_t
    pageCount() const
    {
        return (num_words_ + kStatePageWords - 1) / kStatePageWords;
    }

    /** Words covered by page @p p (short for the tail page). */
    std::uint32_t
    pageWords(std::size_t p) const
    {
        const std::size_t base =
            static_cast<std::size_t>(p) * kStatePageWords;
        const std::size_t left = num_words_ - base;
        return static_cast<std::uint32_t>(
            left < kStatePageWords ? left : kStatePageWords);
    }

    /** Record a mutation of word @p word (both consumers go dirty). */
    void
    onWrite(std::size_t word)
    {
        const std::size_t p = word / kStatePageWords;
        const std::uint64_t bit = std::uint64_t{1} << (p & 63);
        restore_dirty_[p >> 6] |= bit;
        hash_dirty_[p >> 6] |= bit;
    }

    /** Declare the array's current content the baseline: the next
     *  revert/capture sees only pages mutated from here on. */
    void
    markCleanForRestore()
    {
        std::fill(restore_dirty_.begin(), restore_dirty_.end(), 0);
    }

    /**
     * Sum of position-salted page digests over @p words (which must be
     * the tracked array).  Recomputes only hash-dirty pages; everything
     * else folds from the cache.
     */
    std::uint64_t
    digestSum(const std::vector<Word>& words) const
    {
        GPR_ASSERT(words.size() == num_words_, "tracker out of sync");
        std::uint64_t sum = 0;
        const std::size_t pages = pageCount();
        for (std::size_t slot = 0; slot < hash_dirty_.size(); ++slot) {
            std::uint64_t bits = hash_dirty_[slot];
            while (bits) {
                const auto p = (slot << 6) +
                               static_cast<std::size_t>(
                                   __builtin_ctzll(bits));
                bits &= bits - 1;
                digest_[p] = StateHash::wordsDigest(
                    words.data() + p * kStatePageWords, pageWords(p),
                    static_cast<std::uint64_t>(p));
            }
            hash_dirty_[slot] = 0;
        }
        for (std::size_t p = 0; p < pages; ++p)
            sum += digest_[p];
        return sum;
    }

    /**
     * Cached salted digest of page @p p.  Valid only while the page is
     * not hash-dirty — i.e. immediately after a digestSum() pass — which
     * is exactly when the canonical-overlay hash needs it to swap one
     * page's contribution out of the sum.
     */
    std::uint64_t
    cachedPageDigest(std::size_t p) const
    {
        GPR_ASSERT(p < digest_.size() &&
                       (hash_dirty_[p >> 6] &
                        (std::uint64_t{1} << (p & 63))) == 0,
                   "page digest not cached");
        return digest_[p];
    }

    /**
     * Copy every restore-dirty page of @p words back from @p baseline
     * (same size), clearing the restore-dirty set and marking the
     * reverted pages hash-dirty.  After this the array's content equals
     * the baseline's, provided every mutation since the last
     * markCleanForRestore() went through onWrite().
     */
    void
    revertTo(std::vector<Word>& words, const std::vector<Word>& baseline)
    {
        GPR_ASSERT(words.size() == num_words_ &&
                       baseline.size() == num_words_,
                   "revert shape mismatch");
        for (std::size_t slot = 0; slot < restore_dirty_.size(); ++slot) {
            std::uint64_t bits = restore_dirty_[slot];
            hash_dirty_[slot] |= bits;
            restore_dirty_[slot] = 0;
            while (bits) {
                const auto p = (slot << 6) +
                               static_cast<std::size_t>(
                                   __builtin_ctzll(bits));
                bits &= bits - 1;
                const std::size_t base = p * kStatePageWords;
                std::memcpy(words.data() + base, baseline.data() + base,
                            pageWords(p) * sizeof(Word));
            }
        }
    }

    /**
     * Encode into @p out the restore-dirty pages of @p words whose
     * content actually differs from @p baseline (pages that were written
     * back to their baseline value are skipped).  The restore-dirty set
     * is left untouched — during a recording run it accumulates from the
     * baseline capture onward, and several checkpoints capture against
     * the same baseline.
     */
    void
    captureDelta(const std::vector<Word>& words,
                 const std::vector<Word>& baseline,
                 StorageDelta& out) const
    {
        GPR_ASSERT(words.size() == num_words_ &&
                       baseline.size() == num_words_,
                   "delta shape mismatch");
        out.pages.clear();
        out.words.clear();
        for (std::size_t slot = 0; slot < restore_dirty_.size(); ++slot) {
            std::uint64_t bits = restore_dirty_[slot];
            while (bits) {
                const auto p = (slot << 6) +
                               static_cast<std::size_t>(
                                   __builtin_ctzll(bits));
                bits &= bits - 1;
                const std::size_t base = p * kStatePageWords;
                const std::uint32_t n = pageWords(p);
                if (std::memcmp(words.data() + base,
                                baseline.data() + base,
                                n * sizeof(Word)) == 0) {
                    continue;
                }
                out.pages.push_back(static_cast<std::uint32_t>(p));
                out.words.insert(out.words.end(), words.begin() +
                                 static_cast<std::ptrdiff_t>(base),
                                 words.begin() +
                                 static_cast<std::ptrdiff_t>(base + n));
            }
        }
    }

    /** Overwrite the delta's pages in @p words, marking them dirty for
     *  both consumers (they now differ from the baseline and need
     *  re-digesting). */
    void
    applyDelta(std::vector<Word>& words, const StorageDelta& delta)
    {
        GPR_ASSERT(words.size() == num_words_, "delta shape mismatch");
        std::size_t src = 0;
        for (const std::uint32_t p : delta.pages) {
            const std::size_t base =
                static_cast<std::size_t>(p) * kStatePageWords;
            const std::uint32_t n = pageWords(p);
            GPR_ASSERT(base < num_words_ && src + n <= delta.words.size(),
                       "delta page out of range");
            std::memcpy(words.data() + base, delta.words.data() + src,
                        n * sizeof(Word));
            src += n;
            onWrite(base);
        }
        GPR_ASSERT(src == delta.words.size(), "delta payload mismatch");
    }

  private:
    std::size_t num_words_ = 0;
    std::vector<std::uint64_t> restore_dirty_;
    /**
     * Mutable with digest_: the cache refreshes inside const hashing.
     *
     * Guard discipline (lint rule D4): single-writer by ownership, not
     * by lock.  A PageTracker rides inside the WordStorage/MemoryImage
     * of exactly one Gpu, and every Gpu is owned by exactly one
     * FaultInjector, which campaign/orchestrator workers construct
     * per-task and never share.  The only cross-thread object is the
     * cell's CheckpointPack, which is adopted through
     * shared_ptr<const CheckpointPack> — its trackers are never hashed
     * or reverted after publication.  Shard pre-draw batching keeps
     * this property: sampleRandom() only draws from the injector's own
     * RNG stream and reads pack windows (const); the stable_sort and
     * the subsequent inject() calls all run on the worker that owns
     * the injector.  Verified dynamically by the TSan CI job over the
     * campaign/checkpoint/orchestrator test subset.
     */
    // gpr:guarded_by(single-writer: owning FaultInjector's worker task)
    mutable std::vector<std::uint64_t> hash_dirty_;
    // gpr:guarded_by(single-writer: owning FaultInjector's worker task)
    mutable std::vector<std::uint64_t> digest_;
};

} // namespace gpr

#endif // GPR_SIM_STATE_PAGE_HH
