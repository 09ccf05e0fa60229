/**
 * @file
 * Bit-manipulation helpers used by storage models and the fault injector.
 */

#ifndef GPR_COMMON_BITUTILS_HH
#define GPR_COMMON_BITUTILS_HH

#include <cstdint>
#include <cstring>

#include "common/types.hh"

namespace gpr {

/** Flip bit @p bit (0 = LSB) of @p w. */
constexpr Word
flipBit(Word w, unsigned bit)
{
    return w ^ (Word{1} << (bit & 31u));
}

/** Extract bit @p bit of @p w. */
constexpr bool
getBit(Word w, unsigned bit)
{
    return (w >> (bit & 31u)) & 1u;
}

/** Set bit @p bit of @p w to @p value. */
constexpr Word
setBit(Word w, unsigned bit, bool value)
{
    const Word mask = Word{1} << (bit & 31u);
    return value ? (w | mask) : (w & ~mask);
}

/** Population count. */
constexpr unsigned
popcount(Word w)
{
    return static_cast<unsigned>(__builtin_popcountll(w));
}

/** Index of the lowest set bit of @p w, which must be nonzero. */
constexpr unsigned
lowestSetBit(Word w)
{
    return static_cast<unsigned>(__builtin_ctz(w));
}

/** Integer ceiling division. */
template <typename T>
constexpr T
ceilDiv(T a, T b)
{
    return (a + b - 1) / b;
}

/** Round @p a up to the next multiple of @p b. */
template <typename T>
constexpr T
roundUp(T a, T b)
{
    return ceilDiv(a, b) * b;
}

/** Reinterpret a float's bits as a Word (type-pun via memcpy). */
inline Word
floatBits(float f)
{
    static_assert(sizeof(Word) == sizeof(float), "Word/float size mismatch");
    Word w;
    std::memcpy(&w, &f, sizeof(w));
    return w;
}

/** Reinterpret a Word as float. */
inline float
wordToFloat(Word w)
{
    float f;
    std::memcpy(&f, &w, sizeof(f));
    return f;
}

} // namespace gpr

#endif // GPR_COMMON_BITUTILS_HH
