/**
 * @file
 * Page-granular dirty tracking and delta encoding over flat word arrays —
 * the machinery behind the checkpoint engine's copy-on-write restore
 * path.
 *
 * WordStorage, MemoryImage and CacheModel keep their words in one
 * contiguous std::vector<Word>; "pages" here are purely logical 256-word
 * spans of that vector, so the hot read/write paths keep their flat
 * indexing.  A PageTracker rides alongside the vector and keeps one
 * bitmap of the pages mutated since the tracker was last marked clean
 * against a baseline: reverting to the baseline touches only these
 * pages, and capturing a delta checkpoint copies only these pages.
 */

#ifndef GPR_SIM_STATE_PAGE_HH
#define GPR_SIM_STATE_PAGE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

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
     *  start dirty: nothing is known about the array yet, which is
     *  always safe. */
    void
    resize(std::size_t num_words)
    {
        num_words_ = num_words;
        const std::size_t pages = pageCount();
        const std::size_t slots = (pages + 63) / 64;
        restore_dirty_.assign(slots, ~std::uint64_t{0});
        // Bits past pageCount() in the last slot must stay clear: the
        // bitmap walkers treat every set bit as a real page index.
        if (const std::size_t tail = pages & 63; tail != 0 && slots > 0)
            restore_dirty_.back() &= (~std::uint64_t{0}) >> (64 - tail);
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

    /** Record a mutation of word @p word. */
    void
    onWrite(std::size_t word)
    {
        const std::size_t p = word / kStatePageWords;
        restore_dirty_[p >> 6] |= std::uint64_t{1} << (p & 63);
    }

    /** Declare the array's current content the baseline: the next
     *  revert/capture sees only pages mutated from here on. */
    void
    markCleanForRestore()
    {
        std::fill(restore_dirty_.begin(), restore_dirty_.end(), 0);
    }

    /**
     * Copy every restore-dirty page of @p words back from @p baseline
     * (same size), clearing the restore-dirty set.  After this the
     * array's content equals the baseline's, provided every mutation
     * since the last markCleanForRestore() went through onWrite().
     */
    void
    revertTo(std::vector<Word>& words, const std::vector<Word>& baseline)
    {
        GPR_ASSERT(words.size() == num_words_ &&
                       baseline.size() == num_words_,
                   "revert shape mismatch");
        for (std::size_t slot = 0; slot < restore_dirty_.size(); ++slot) {
            std::uint64_t bits = restore_dirty_[slot];
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

    /** Overwrite the delta's pages in @p words, marking them dirty
     *  (they now differ from the baseline). */
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
};

} // namespace gpr

#endif // GPR_SIM_STATE_PAGE_HH
