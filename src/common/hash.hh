/**
 * @file
 * A cheap 64-bit hash accumulator: the campaign hash of a study spec
 * (core/study_spec.cc) and the device-state fingerprint that the
 * snapshot/restore round-trip tests compare (Gpu::deviceStateHash).
 *
 * The construction is an xxHash-style round — XOR, *rotate*, multiply —
 * with a splitmix64 finaliser.  The rotation is load-bearing: a plain
 * XOR-multiply chain is triangular modulo 2^64 (output bit i depends
 * only on input bits <= i), so two single-bit differences near bit 63 —
 * exactly what a bit flip and the register that loaded it produce —
 * stay confined to a couple of top bits and can cancel with probability
 * ~1/4.  Rotating after each absorption diffuses high bits down, making
 * cancellation require a full 64-bit coincidence.  Word arrays are
 * folded four lanes at a time so the multiply latency chain does not
 * bottleneck hashing megabyte-sized register files.  This is a
 * fingerprint, not a cryptographic hash.
 */

#ifndef GPR_COMMON_HASH_HH
#define GPR_COMMON_HASH_HH

#include <cstddef>
#include <cstdint>

namespace gpr {

class StateHash
{
  public:
    /** Fold one 64-bit value into the running state. */
    void
    mix(std::uint64_t v)
    {
        h_ = round(h_, v);
    }

    /** Fold a 32-bit word array (storage contents, memory images). */
    void
    mixWords(const std::uint32_t* w, std::size_t n)
    {
        mix(n);
        std::uint64_t a = h_ ^ 0x9e3779b97f4a7c15ULL;
        std::uint64_t b = h_ ^ 0xbf58476d1ce4e5b9ULL;
        std::uint64_t c = h_ ^ 0x94d049bb133111ebULL;
        std::uint64_t d = h_ ^ 0x2545f4914f6cdd1dULL;
        std::size_t i = 0;
        for (; i + 8 <= n; i += 8) {
            a = round(a, pack(w[i + 0], w[i + 1]));
            b = round(b, pack(w[i + 2], w[i + 3]));
            c = round(c, pack(w[i + 4], w[i + 5]));
            d = round(d, pack(w[i + 6], w[i + 7]));
        }
        for (; i < n; ++i)
            a = round(a, w[i]);
        mix(a);
        mix(b);
        mix(c);
        mix(d);
    }

    /** Finalised digest (the accumulator itself stays unperturbed). */
    std::uint64_t
    value() const
    {
        // splitmix64 finaliser: diffuses the low-entropy high bits the
        // multiplicative core leaves behind.
        std::uint64_t z = h_;
        z ^= z >> 30;
        z *= 0xbf58476d1ce4e5b9ULL;
        z ^= z >> 27;
        z *= 0x94d049bb133111ebULL;
        z ^= z >> 31;
        return z;
    }

  private:
    static constexpr std::uint64_t kMul = 0x100000001b3ULL; // FNV prime

    /** One absorption: XOR, rotate (high bits reach low positions so
     *  the multiply can spread them again — see the file comment),
     *  multiply. */
    static std::uint64_t
    round(std::uint64_t acc, std::uint64_t v)
    {
        const std::uint64_t x = acc ^ v;
        return ((x << 27) | (x >> 37)) * kMul;
    }

    static std::uint64_t
    pack(std::uint32_t lo, std::uint32_t hi)
    {
        return static_cast<std::uint64_t>(lo) |
               (static_cast<std::uint64_t>(hi) << 32);
    }

    std::uint64_t h_ = 0xcbf29ce484222325ULL; // FNV offset basis
};

} // namespace gpr

#endif // GPR_COMMON_HASH_HH
