/**
 * @file
 * Per-unit state of one structure across the chip, allocated in blocks
 * on first touch.
 *
 * The golden-run observers (ACE lifetime accounting, fault-window
 * recording, access profiling) keep a few words of state per lifetime
 * unit of every structure.  A full-size chip has millions of units (an
 * HD 7970's register files alone hold 2M words), while a kernel touches
 * a small part of them.  Allocating a block of states on its first
 * event makes both building the table and sweeping it at the end cost
 * only what the run touched.
 */

#ifndef GPR_RELIABILITY_UNIT_TABLE_HH
#define GPR_RELIABILITY_UNIT_TABLE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace gpr {

/** Units per UnitTable block (a power of two): the granularity at which
 *  per-unit state is allocated, and at which FaultWindows indexes the
 *  units a run touched. */
constexpr unsigned kUnitBlockBits = 8;
constexpr std::size_t kUnitBlockUnits = std::size_t{1} << kUnitBlockBits;

template <typename State>
class UnitTable
{
  public:
    UnitTable() = default;

    /** @p units_per_instance units on each of @p instances (the SMs,
     *  or 1 for a chip-scoped structure, whose events name SM 0). */
    UnitTable(std::uint64_t units_per_instance, std::uint64_t instances)
        : units_per_instance_(units_per_instance),
          units_(static_cast<std::size_t>(units_per_instance * instances)),
          blocks_((units_ + kUnitBlockUnits - 1) / kUnitBlockUnits)
    {
    }

    /** Chip-wide unit count. */
    std::size_t size() const { return units_; }

    /** Chip-global index of units [@p first, @p first + @p count) of
     *  instance @p sm; asserts the range lies inside the table. */
    std::size_t
    index(SmId sm, std::uint32_t first, std::uint32_t count = 1) const
    {
        const std::size_t u =
            static_cast<std::size_t>(sm * units_per_instance_) + first;
        GPR_ASSERT(u + count <= units_, "observer word out of range");
        return u;
    }

    /** The state of chip-global unit @p u, value-initialised when its
     *  block is first touched. */
    State&
    operator[](std::size_t u)
    {
        std::unique_ptr<State[]>& block = blocks_[u >> kUnitBlockBits];
        if (!block)
            block = std::make_unique<State[]>(kUnitBlockUnits);
        return block[u & (kUnitBlockUnits - 1)];
    }

    /** Call @p fn(unit, state) for every unit of every touched block,
     *  in unit order; untouched units hold value-initialised state. */
    template <typename Fn>
    void
    forEachTouched(Fn&& fn)
    {
        visitTouched(*this, fn);
    }

    template <typename Fn>
    void
    forEachTouched(Fn&& fn) const
    {
        visitTouched(*this, fn);
    }

  private:
    /** forEachTouched() for a const or mutable @p table. */
    template <typename Table, typename Fn>
    static void
    visitTouched(Table& table, Fn& fn)
    {
        using Ref = std::conditional_t<std::is_const_v<Table>, const State&,
                                       State&>;
        for (std::size_t b = 0; b < table.blocks_.size(); ++b) {
            if (!table.blocks_[b])
                continue;
            const std::size_t first = b * kUnitBlockUnits;
            const std::size_t n =
                std::min(kUnitBlockUnits, table.units_ - first);
            for (std::size_t i = 0; i < n; ++i)
                fn(first + i, static_cast<Ref>(table.blocks_[b][i]));
        }
    }

    std::uint64_t units_per_instance_ = 0;
    std::size_t units_ = 0;
    /** kUnitBlockUnits states per block; null until first touched. */
    std::vector<std::unique_ptr<State[]>> blocks_;
};

} // namespace gpr

#endif // GPR_RELIABILITY_UNIT_TABLE_HH
