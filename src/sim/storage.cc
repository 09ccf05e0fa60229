#include "sim/storage.hh"

#include <algorithm>

#include "common/logging.hh"

namespace gpr {

WordStorage::WordStorage(std::uint32_t num_words)
    : words_(num_words, 0u)
{
    GPR_ASSERT(num_words > 0, "zero-sized storage");
    free_list_.push_back({0, num_words});
    pages_.resize(num_words);
}

Word
WordStorage::read(std::uint32_t index) const
{
    GPR_ASSERT(index < words_.size(), "storage read out of range");
    Word value = words_[index];
    if (stuck_enabled_ && index == stuck_word_)
        value = (value & ~stuck_mask_) | stuck_value_;
    return value;
}

void
WordStorage::setStuckBits(std::uint32_t word, Word mask, Word value)
{
    GPR_ASSERT(word < words_.size(), "stuck word out of range");
    GPR_ASSERT((value & ~mask) == 0, "stuck value outside stuck mask");
    stuck_word_ = word;
    stuck_mask_ = mask;
    stuck_value_ = value;
    stuck_enabled_ = false;
}

void
WordStorage::setStuckEnabled(bool enabled)
{
    stuck_enabled_ = enabled;
}

void
WordStorage::clearStuck()
{
    stuck_word_ = 0;
    stuck_mask_ = 0;
    stuck_value_ = 0;
    stuck_enabled_ = false;
}

void
WordStorage::write(std::uint32_t index, Word value)
{
    GPR_ASSERT(index < words_.size(), "storage write out of range");
    words_[index] = value;
    pages_.onWrite(index);
}

void
WordStorage::flipBitAt(BitIndex bit_index)
{
    const std::uint32_t word = static_cast<std::uint32_t>(bit_index / 32);
    const unsigned bit = static_cast<unsigned>(bit_index % 32);
    GPR_ASSERT(word < words_.size(), "bit flip out of range");
    words_[word] = flipBit(words_[word], bit);
    pages_.onWrite(word);
}

std::optional<std::uint32_t>
WordStorage::allocate(std::uint32_t count)
{
    GPR_ASSERT(count > 0, "zero-sized allocation");
    for (std::size_t i = 0; i < free_list_.size(); ++i) {
        if (free_list_[i].count >= count) {
            const std::uint32_t base = free_list_[i].base;
            free_list_[i].base += count;
            free_list_[i].count -= count;
            if (free_list_[i].count == 0)
                free_list_.erase(free_list_.begin() +
                                 static_cast<std::ptrdiff_t>(i));
            allocated_words_ += count;
            return base;
        }
    }
    return std::nullopt;
}

void
WordStorage::hashInto(StateHash& h) const
{
    h.mixWords(words_.data(), words_.size());
    h.mix(free_list_.size());
    for (const Range& r : free_list_) {
        h.mix(r.base);
        h.mix(r.count);
    }
    h.mix(allocated_words_);
}

void
WordStorage::revertTo(const WordStorage& baseline)
{
    GPR_ASSERT(baseline.words_.size() == words_.size(),
               "revert against a different-shaped storage");
    pages_.revertTo(words_, baseline.words_);
    free_list_ = baseline.free_list_;
    allocated_words_ = baseline.allocated_words_;
    clearStuck();
}

void
WordStorage::captureDelta(const WordStorage& baseline, Delta& out) const
{
    GPR_ASSERT(baseline.words_.size() == words_.size(),
               "delta against a different-shaped storage");
    pages_.captureDelta(words_, baseline.words_, out.pages);
    out.freeList = free_list_;
    out.allocatedWords = allocated_words_;
}

void
WordStorage::applyDelta(const Delta& delta)
{
    pages_.applyDelta(words_, delta.pages);
    free_list_ = delta.freeList;
    allocated_words_ = delta.allocatedWords;
}

void
WordStorage::release(std::uint32_t base, std::uint32_t count)
{
    GPR_ASSERT(count > 0 && base + count <= words_.size(),
               "bad release range");
    GPR_ASSERT(allocated_words_ >= count, "double free");
    allocated_words_ -= count;

    // Insert sorted, then coalesce neighbours.
    const Range range{base, count};
    const auto pos = std::lower_bound(
        free_list_.begin(), free_list_.end(), range,
        [](const Range& a, const Range& b) { return a.base < b.base; });
    const auto it = free_list_.insert(pos, range);

    const std::size_t idx = static_cast<std::size_t>(it - free_list_.begin());
    // Coalesce with successor.
    if (idx + 1 < free_list_.size() &&
        free_list_[idx].base + free_list_[idx].count ==
            free_list_[idx + 1].base) {
        free_list_[idx].count += free_list_[idx + 1].count;
        free_list_.erase(free_list_.begin() +
                         static_cast<std::ptrdiff_t>(idx + 1));
    }
    // Coalesce with predecessor.
    if (idx > 0 && free_list_[idx - 1].base + free_list_[idx - 1].count ==
                       free_list_[idx].base) {
        free_list_[idx - 1].count += free_list_[idx].count;
        free_list_.erase(free_list_.begin() +
                         static_cast<std::ptrdiff_t>(idx));
    }
}

} // namespace gpr
