/**
 * @file
 * The global-memory image a kernel runs against.
 *
 * Workloads build an image (inputs + zeroed outputs), the simulator runs
 * against a private copy, and the workload then compares output buffers
 * against a host-computed golden.  Word-granular, byte-addressed.
 */

#ifndef GPR_SIM_MEMORY_IMAGE_HH
#define GPR_SIM_MEMORY_IMAGE_HH

#include <cstdint>
#include <vector>

#include "common/bitutils.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "sim/state_page.hh"

namespace gpr {

/** A named span of global memory (byte address + word count). */
struct Buffer
{
    Addr byteAddr = 0;
    std::uint32_t words = 0;

    Addr byteAddrOfWord(std::uint32_t i) const
    {
        GPR_ASSERT(i < words, "buffer index out of range");
        return byteAddr + static_cast<Addr>(i) * 4;
    }
};

class MemoryImage
{
  public:
    MemoryImage() = default;

    /** Reserve a word-aligned buffer of @p words 32-bit words. */
    Buffer
    allocBuffer(std::uint32_t words)
    {
        // A zero-word Buffer would carry the byte address of whatever is
        // allocated *next* — a footgun that silently aliases two buffers.
        GPR_ASSERT(words > 0,
                   "allocBuffer(0): zero-word buffers would alias the "
                   "next allocation's base address");
        // Do the address arithmetic in Addr width *before* any multiply
        // or add, and pin the image to what sizeWords()/Buffer::words
        // can express — a 32-bit word count (16 GiB of image).
        const Addr base_words = static_cast<Addr>(words_.size());
        const Addr total_words = base_words + static_cast<Addr>(words);
        GPR_ASSERT(total_words <= 0xffffffffULL,
                   "memory image exceeds the 32-bit word-count limit");
        Buffer b;
        b.byteAddr = base_words * 4;
        b.words = words;
        words_.resize(static_cast<std::size_t>(total_words), 0u);
        pages_.resize(words_.size());
        return b;
    }

    std::uint32_t sizeWords() const
    {
        return static_cast<std::uint32_t>(words_.size());
    }
    Addr sizeBytes() const { return static_cast<Addr>(words_.size()) * 4; }

    /** In-range check for a word access at byte address @p addr. */
    bool
    inBounds(Addr addr) const
    {
        return addr / 4 < words_.size();
    }

    /**
     * Word read at byte address @p addr, which must be word-aligned.
     * Misalignment is a *caller* bug at this level: the simulator's
     * memory path traps TrapKind::MisalignedAddress before ever calling
     * in (a tag-fault-corrupted address must surface as a DUE, not be
     * silently aligned down onto the wrong word).
     */
    Word
    readWord(Addr addr) const
    {
        GPR_ASSERT(inBounds(addr), "global read out of bounds");
        GPR_ASSERT((addr & 3) == 0, "misaligned global word read");
        return words_[addr / 4];
    }

    void
    writeWord(Addr addr, Word value)
    {
        GPR_ASSERT(inBounds(addr), "global write out of bounds");
        GPR_ASSERT((addr & 3) == 0, "misaligned global word write");
        const std::size_t index = static_cast<std::size_t>(addr / 4);
        words_[index] = value;
        pages_.onWrite(index);
    }

    // Typed helpers for workload setup / checking.
    void setWord(const Buffer& b, std::uint32_t i, Word v)
    {
        writeWord(b.byteAddrOfWord(i), v);
    }
    Word getWord(const Buffer& b, std::uint32_t i) const
    {
        return readWord(b.byteAddrOfWord(i));
    }
    void setFloat(const Buffer& b, std::uint32_t i, float f)
    {
        setWord(b, i, floatBits(f));
    }
    float getFloat(const Buffer& b, std::uint32_t i) const
    {
        return wordToFloat(getWord(b, i));
    }
    void setInt(const Buffer& b, std::uint32_t i, std::int32_t v)
    {
        setWord(b, i, static_cast<Word>(v));
    }
    std::int32_t getInt(const Buffer& b, std::uint32_t i) const
    {
        return static_cast<std::int32_t>(getWord(b, i));
    }

    /** Raw word array (whole-image comparisons, output checking). */
    const std::vector<Word>& words() const { return words_; }

    // --- Delta/CoW checkpoint support (mirrors WordStorage) -------------

    /** Declare the current contents the revert/capture baseline. */
    void markCleanForRestore() { pages_.markCleanForRestore(); }

    /** Copy back from @p baseline only the pages written since
     *  markCleanForRestore() (both images must be the same shape). */
    void
    revertTo(const MemoryImage& baseline)
    {
        GPR_ASSERT(baseline.words_.size() == words_.size(),
                   "revert against a different-shaped image");
        pages_.revertTo(words_, baseline.words_);
    }

    /** Encode the pages differing from @p baseline into @p out. */
    void
    captureDelta(const MemoryImage& baseline, StorageDelta& out) const
    {
        GPR_ASSERT(baseline.words_.size() == words_.size(),
                   "delta against a different-shaped image");
        pages_.captureDelta(words_, baseline.words_, out);
    }

    /** Overwrite the delta's pages (this image must currently match the
     *  baseline the delta was recorded against). */
    void applyDelta(const StorageDelta& delta)
    {
        pages_.applyDelta(words_, delta);
    }

    /** Resident footprint of the full image (pack accounting). */
    std::size_t bytes() const { return words_.size() * sizeof(Word); }

  private:
    std::vector<Word> words_;
    PageTracker pages_;
};

} // namespace gpr

#endif // GPR_SIM_MEMORY_IMAGE_HH
