/**
 * @file
 * FaultWindowRecorder differential tests: seeded random event streams
 * are fed to the recorder and every query of the finalised
 * FaultWindows is checked against a brute-force oracle built from the
 * same stream — observed() at every cycle, stuckAgreeCycle() for every
 * aligned bit group of widths 1/2/4 and both forced values, and
 * intervalCount() — plus recorders of one structure and of one half
 * (windows or residency) against the full one, the edge units of every
 * structure on full-size chips, the residency slot cap and the sizing
 * of the chip-scoped L2.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/random.hh"
#include "reliability/fault_windows.hh"
#include "sim/cache.hh"
#include "sim/structure_registry.hh"
#include "sim_test_util.hh"

namespace gpr {
namespace {

constexpr Cycle kNever = FaultWindows::kNeverAgrees;

/** One observer event of one word, in stream order. */
struct Event
{
    bool read = false;
    Word value = 0;
    Cycle cycle = 0;
};

/** Does @p structure record value residency (read-overlay faults)? */
bool
hasResidency(TargetStructure structure)
{
    return structureSpec(structure).persistenceHook ==
           PersistenceHook::StorageReadOverlay;
}

/** Chip-global word of (@p sm, @p word) in @p structure. */
std::uint64_t
chipWord(const GpuConfig& cfg, TargetStructure structure, SmId sm,
         std::uint32_t word)
{
    return std::uint64_t{sm} * structureSpec(structure).aceUnitsPerSm(cfg) +
           word;
}

/**
 * The units one allocation names: a cache line, or the predicate
 * registers or SIMT units of one warp slot.  Such an allocation
 * rewrites them all (a refill or a dispatch); word storage allocates
 * single words here, and its allocation writes nothing.
 */
std::uint32_t
allocGroupUnits(const GpuConfig& cfg, TargetStructure structure)
{
    switch (structure) {
      case TargetStructure::PredicateFile:
        return kNumPredRegs;
      case TargetStructure::SimtStack:
        return kSimtUnitsPerWarp;
      default:
        return structureSpec(structure).kind == StructureKind::CacheArray
                   ? static_cast<std::uint32_t>(
                         cacheLineAceUnits(cfg.cacheLineWords()))
                   : 1;
    }
}

/**
 * The brute-force oracle for one word: the word's own events in stream
 * order.  Every answer is computed from the definitions, not from the
 * recorder's merged intervals or residency stamps.
 */
struct WordOracle
{
    std::vector<Event> events;

    /** A flip at the start of @p c is read before being overwritten:
     *  some read at cycle >= c whose defining write (the last write
     *  before it in stream order) lands strictly before c. */
    bool
    observed(Cycle c) const
    {
        Cycle open = 0; // first cycle after the defining write
        for (const Event& e : events) {
            if (!e.read)
                open = e.cycle + 1;
            else if (open <= c && c <= e.cycle)
                return true;
        }
        return false;
    }

    /** First cycle from which every read sees bits [first, first+width)
     *  equal to @p value; 0 when the word is never read. */
    Cycle
    stuckAgree(unsigned first, unsigned width, bool value) const
    {
        Cycle agree = 0;
        for (const Event& e : events) {
            if (!e.read)
                continue;
            for (unsigned b = first; b < first + width; ++b) {
                if ((((e.value >> b) & 1u) != 0) != value)
                    agree = std::max(agree, e.cycle + 1);
            }
        }
        return agree;
    }

    /** Intervals the recorder keeps: a read opens a new one iff it is
     *  the word's first read or a write at a later cycle separates it
     *  from the previous read. */
    std::size_t
    intervals() const
    {
        std::size_t n = 0;
        bool any_read = false;
        bool separated = false;
        Cycle last_read = 0;
        for (const Event& e : events) {
            if (!e.read) {
                separated = separated || !any_read || e.cycle > last_read;
                continue;
            }
            if (!any_read || separated)
                ++n;
            any_read = true;
            separated = false;
            last_read = e.cycle;
        }
        return n;
    }
};

using WordKey = std::pair<TargetStructure, std::uint64_t>;

/** One observer call of a stream. */
struct Call
{
    enum Kind { Read, Write, Alloc } kind = Read;
    TargetStructure structure = TargetStructure::VectorRegisterFile;
    SmId sm = 0;
    std::uint32_t word = 0;  ///< the first unit of an allocation
    std::uint32_t count = 1; ///< units an allocation names
    Word value = 0;
    Cycle cycle = 0;
};

/**
 * A random stream over a few words of each of rf/lds/srf, the predicate
 * file, the SIMT target and the three caches on a 2-CU Southern Islands
 * device, with the oracle of every word it touches.  Cycles advance by
 * 0..3, so several events share a cycle, and values drift one bit at a
 * time (so bits agree over long runs) with occasional fresh values.
 * Allocations land on every structure.  On a cache row they are line
 * refills and on the predicate file and the SIMT target warp
 * dispatches; the oracle sees either as a write of every unit named,
 * except at cycle 0, where it is the kernel's first dispatch, which
 * precedes a cycle-0 flip and so erases none.  Word-storage
 * allocation writes nothing.  Cache and control sites crowd into three
 * lines or warp slots per instance, so allocations hit read units;
 * SIMT sites are PC/mask units and stack entries alike.
 */
struct RandomStream
{
    static constexpr TargetStructure kStructures[] = {
        TargetStructure::VectorRegisterFile,
        TargetStructure::SharedMemory,
        TargetStructure::ScalarRegisterFile,
        TargetStructure::PredicateFile,
        TargetStructure::SimtStack,
        TargetStructure::L1DataCache,
        TargetStructure::L1InstructionCache,
        TargetStructure::L2Cache,
    };

    GpuConfig cfg = test::smallSiConfig();
    std::vector<Call> calls;
    std::map<WordKey, WordOracle> oracle;
    Cycle end = 0; ///< past every event

    explicit RandomStream(std::uint64_t seed)
    {
        Rng rng(seed);
        struct Site
        {
            TargetStructure structure;
            SmId sm;
            std::uint32_t word;
            Word value;
        };
        std::vector<Site> sites;
        for (TargetStructure s : kStructures) {
            const StructureSpec& spec = structureSpec(s);
            const std::uint64_t words = spec.aceUnitsPerSm(cfg);
            EXPECT_GT(words, 0u) << targetStructureName(s);
            const std::uint32_t group = allocGroupUnits(cfg, s);
            for (int i = 0; i < 12; ++i) {
                const SmId sm =
                    spec.scope == StructureScope::Chip
                        ? 0
                        : static_cast<SmId>(rng.below(cfg.numSms));
                const auto word = static_cast<std::uint32_t>(
                    group > 1 ? rng.below(3) * group + rng.below(group)
                              : rng.below(words));
                sites.push_back({s, sm, word, static_cast<Word>(rng())});
            }
        }

        Cycle cycle = 0;
        // About every sixth event is followed by one more on the same
        // word in the same cycle (write-then-read in one cycle opens an
        // empty window).
        Site* repeat = nullptr;
        for (int step = 0; step < 1500; ++step) {
            const bool same = repeat != nullptr;
            if (!same)
                cycle += rng.below(4);
            Site& site = same ? *repeat : sites[rng.below(sites.size())];
            repeat = !same && rng.below(6) == 0 ? &site : nullptr;
            Call call;
            call.structure = site.structure;
            call.sm = site.sm;
            call.word = site.word;
            call.cycle = cycle;
            if (rng.below(8) == 0) {
                const std::uint32_t group =
                    allocGroupUnits(cfg, site.structure);
                call.kind = Call::Alloc;
                call.word = site.word - site.word % group;
                call.count = group;
                calls.push_back(call);
                const bool writes = structureSpec(site.structure).kind !=
                                    StructureKind::WordStorage;
                if (!writes || cycle == 0)
                    continue;
                for (std::uint32_t u = call.word; u < call.word + group;
                     ++u) {
                    Event w;
                    w.cycle = cycle;
                    oracle[{site.structure,
                            chipWord(cfg, site.structure, site.sm, u)}]
                        .events.push_back(w);
                }
                continue;
            }
            Event e;
            e.cycle = cycle;
            e.read = rng.below(3) != 0;
            if (e.read) {
                if (rng.below(8) == 0)
                    site.value = static_cast<Word>(rng());
                else
                    site.value ^= Word{1} << rng.below(32);
                e.value = site.value;
            }
            call.kind = e.read ? Call::Read : Call::Write;
            call.value = e.value;
            calls.push_back(call);
            oracle[{site.structure,
                    chipWord(cfg, site.structure, site.sm, site.word)}]
                .events.push_back(e);
        }
        end = cycle + 2;
    }

    /** Feed the stream to a recorder of @p structures and @p behaviors
     *  and finalise. */
    FaultWindows
    record(const std::vector<TargetStructure>& structures,
           const std::vector<FaultBehavior>& behaviors =
               allFaultBehaviors()) const
    {
        FaultWindowRecorder recorder(cfg, structures, behaviors);
        for (const Call& c : calls) {
            switch (c.kind) {
              case Call::Read:
                recorder.onRead(c.structure, c.sm, c.word, c.value,
                                c.cycle);
                break;
              case Call::Write:
                recorder.onWrite(c.structure, c.sm, c.word, c.cycle);
                break;
              case Call::Alloc:
                recorder.onAlloc(c.structure, c.sm, c.word, c.count,
                                 c.cycle);
                break;
            }
        }
        FaultWindows windows;
        recorder.finalize(windows);
        EXPECT_TRUE(windows.enabled());
        return windows;
    }
};

void
runRandomStream(std::uint64_t seed)
{
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const RandomStream stream(seed);
    const GpuConfig& cfg = stream.cfg;
    const FaultWindows windows = stream.record(registeredStructures());

    std::size_t expected_intervals = 0;
    for (const auto& [key, word] : stream.oracle) {
        const auto [structure, chip_word] = key;
        SCOPED_TRACE(testing::Message()
                     << targetStructureName(structure) << " word "
                     << chip_word);
        expected_intervals += word.intervals();
        for (Cycle c = 0; c <= stream.end; ++c) {
            ASSERT_EQ(windows.observed(structure, chip_word, c),
                      word.observed(c))
                << "cycle " << c;
        }
        const bool residency = hasResidency(structure);
        for (unsigned width : {1u, 2u, 4u}) {
            for (unsigned first = 0; first < 32; first += width) {
                for (bool value : {false, true}) {
                    ASSERT_EQ(windows.stuckAgreeCycle(structure, chip_word,
                                                      first, width, value),
                              residency
                                  ? word.stuckAgree(first, width, value)
                                  : kNever)
                        << "bits " << first << "+" << width << " stuck-at-"
                        << value;
                }
            }
        }
    }
    EXPECT_EQ(windows.intervalCount(), expected_intervals);

    // Words the stream never touched: never observed; always benign
    // under a read overlay, never provably benign elsewhere.
    Rng rng(seed ^ 0x5EED);
    for (TargetStructure s : RandomStream::kStructures) {
        const StructureSpec& spec = structureSpec(s);
        for (int i = 0; i < 16; ++i) {
            const SmId sm = spec.scope == StructureScope::Chip
                                ? 0
                                : static_cast<SmId>(rng.below(cfg.numSms));
            const auto w = static_cast<std::uint32_t>(
                rng.below(spec.aceUnitsPerSm(cfg)));
            const std::uint64_t chip_word = chipWord(cfg, s, sm, w);
            if (stream.oracle.count({s, chip_word}))
                continue;
            EXPECT_FALSE(windows.observed(s, chip_word, stream.end / 2));
            EXPECT_EQ(windows.stuckAgreeCycle(s, chip_word, 0, 4, true),
                      hasResidency(s) ? 0u : kNever);
        }
    }
}

TEST(FaultWindows, RecorderMatchesBruteForceOracle)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
        runRandomStream(seed);
}

/**
 * A pack records only the structures its campaigns inject.  A recorder
 * of {rf} fed the random stream keeps the full recorder's rf windows and
 * residency, and every other structure answers as an unrecorded one:
 * observed() true at every cycle and kNeverAgrees.
 */
TEST(FaultWindows, RecorderOfOneStructureLeavesTheRestConservative)
{
    const TargetStructure rf = TargetStructure::VectorRegisterFile;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        const RandomStream stream(seed);
        const FaultWindows full = stream.record(registeredStructures());
        const FaultWindows only_rf = stream.record({rf});

        std::size_t rf_intervals = 0;
        for (const auto& [key, word] : stream.oracle) {
            const auto [structure, chip_word] = key;
            SCOPED_TRACE(testing::Message()
                         << targetStructureName(structure) << " word "
                         << chip_word);
            if (structure == rf)
                rf_intervals += word.intervals();
            for (Cycle c = 0; c <= stream.end; ++c) {
                ASSERT_EQ(only_rf.observed(structure, chip_word, c),
                          structure != rf ||
                              full.observed(structure, chip_word, c))
                    << "cycle " << c;
            }
            for (unsigned first = 0; first < 32; first += 2) {
                for (bool value : {false, true}) {
                    ASSERT_EQ(
                        only_rf.stuckAgreeCycle(structure, chip_word, first,
                                                2, value),
                        structure == rf
                            ? full.stuckAgreeCycle(structure, chip_word,
                                                   first, 2, value)
                            : kNever)
                        << "bits " << first << "+2 stuck-at-" << value;
                }
            }
        }
        EXPECT_GT(rf_intervals, 0u);
        EXPECT_EQ(only_rf.intervalCount(), rf_intervals);
    }
}

/**
 * A pack records only the halves its faults query.  A recorder for
 * transient faults keeps the full recorder's windows and answers
 * kNeverAgrees everywhere; one for persistent faults keeps the full
 * recorder's residency, records no interval and answers observed()
 * true at every cycle.  The residency recorder ignores writes and
 * allocations, so a word the stream only writes lies in a block it
 * never touched, and still answers 0 like the full recorder.
 */
TEST(FaultWindows, RecorderOfOneHalfLeavesTheOtherConservative)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        const RandomStream stream(seed);
        const FaultWindows full = stream.record(registeredStructures());
        const FaultWindows windows = stream.record(
            registeredStructures(), {FaultBehavior::Transient});
        const FaultWindows residency = stream.record(
            registeredStructures(),
            {FaultBehavior::StuckAt0, FaultBehavior::Intermittent});

        for (const auto& [key, word] : stream.oracle) {
            const auto [structure, chip_word] = key;
            SCOPED_TRACE(testing::Message()
                         << targetStructureName(structure) << " word "
                         << chip_word);
            for (Cycle c = 0; c <= stream.end; ++c) {
                ASSERT_EQ(windows.observed(structure, chip_word, c),
                          full.observed(structure, chip_word, c))
                    << "cycle " << c;
                ASSERT_TRUE(residency.observed(structure, chip_word, c))
                    << "cycle " << c;
            }
            for (unsigned bit = 0; bit < 32; ++bit) {
                for (bool value : {false, true}) {
                    ASSERT_EQ(windows.stuckAgreeCycle(structure, chip_word,
                                                      bit, 1, value),
                              kNever)
                        << "bit " << bit << " stuck-at-" << value;
                    ASSERT_EQ(residency.stuckAgreeCycle(structure, chip_word,
                                                        bit, 1, value),
                              full.stuckAgreeCycle(structure, chip_word, bit,
                                                   1, value))
                        << "bit " << bit << " stuck-at-" << value;
                }
            }
        }
        EXPECT_GT(full.intervalCount(), 0u);
        EXPECT_EQ(windows.intervalCount(), full.intervalCount());
        EXPECT_EQ(residency.intervalCount(), 0u);
    }
}

/**
 * The first and last unit of the first and last instance of every
 * structure on two full-size chips, with the chip-scoped L2's events at
 * SM 0: units at the edges of the touched-block map, including blocks
 * that straddle two SMs' units (a per-SM unit count that is not a
 * multiple of 256) and the chip's partial last block.  Each unit is
 * written once and read twice at its own cycles, so two units that
 * shared an index would answer each other's windows.  Beside them, an
 * untouched unit of a touched block and the first and last unit of an
 * untouched block answer as never touched, and units at and past the
 * structure's size answer conservatively.
 */
TEST(FaultWindows, EdgeUnitsOfEveryStructure)
{
    struct Probe
    {
        SmId sm;
        std::uint32_t unit;
        std::uint64_t chipUnit;
    };
    // The cycle after the last disagreeing read of either read value.
    const auto agree = [](Word a, Cycle ca, Word b, Cycle cb, unsigned bit,
                          bool value) {
        const auto differs = [&](Word w) {
            return (((w >> bit) & 1u) != 0) != value;
        };
        return differs(b) ? cb + 1 : differs(a) ? ca + 1 : Cycle{0};
    };
    std::size_t straddling = 0;
    std::size_t untouched_blocks = 0;
    for (GpuModel model :
         {GpuModel::HdRadeon7970, GpuModel::GeforceGtx480}) {
        const GpuConfig& cfg = gpuConfig(model);
        for (const StructureSpec& spec : structureRegistry()) {
            SCOPED_TRACE(std::string(spec.shortName) + " on " + cfg.name);
            const auto units =
                static_cast<std::uint32_t>(spec.aceUnitsPerSm(cfg));
            const auto instances =
                static_cast<SmId>(structureInstances(cfg, spec.id));
            const std::uint64_t total = std::uint64_t{units} * instances;
            const bool residency = hasResidency(spec.id);
            FaultWindowRecorder recorder(cfg, {spec.id});
            std::vector<Probe> probes;
            if (units > 0) {
                probes = {{0, 0, 0}, {0, units - 1, units - 1}};
                if (instances > 1) {
                    const std::uint64_t base =
                        std::uint64_t{instances - 1} * units;
                    probes.push_back({instances - 1, 0, base});
                    probes.push_back(
                        {instances - 1, units - 1, base + units - 1});
                }
                straddling += units % kUnitBlockUnits != 0 && instances > 1;
            }
            const auto value_a = [](std::size_t k) {
                return static_cast<Word>(0x5A5A00F0u ^ k);
            };
            const auto value_b = [](std::size_t k) {
                return static_cast<Word>(0x0F0F0F0Fu ^ (k << 8));
            };
            for (std::size_t k = 0; k < probes.size(); ++k)
                recorder.onWrite(spec.id, probes[k].sm, probes[k].unit, 2 + k);
            for (std::size_t k = 0; k < probes.size(); ++k) {
                recorder.onRead(spec.id, probes[k].sm, probes[k].unit,
                                value_a(k), 10 + k);
            }
            for (std::size_t k = 0; k < probes.size(); ++k) {
                recorder.onRead(spec.id, probes[k].sm, probes[k].unit,
                                value_b(k), 20 + 3 * k);
            }
            FaultWindows windows;
            recorder.finalize(windows);
            ASSERT_TRUE(windows.enabled());
            EXPECT_EQ(windows.intervalCount(), probes.size());

            // Each probe: written at 2 + k, so observable from 3 + k
            // through its last read at 20 + 3k.
            for (std::size_t k = 0; k < probes.size(); ++k) {
                const std::uint64_t u = probes[k].chipUnit;
                SCOPED_TRACE(testing::Message() << "unit " << u);
                EXPECT_FALSE(windows.observed(spec.id, u, 2 + k));
                EXPECT_TRUE(windows.observed(spec.id, u, 3 + k));
                EXPECT_TRUE(windows.observed(spec.id, u, 20 + 3 * k));
                EXPECT_FALSE(windows.observed(spec.id, u, 21 + 3 * k));
                for (unsigned bit = 0; bit < 32; ++bit) {
                    for (bool value : {false, true}) {
                        EXPECT_EQ(windows.stuckAgreeCycle(spec.id, u, bit, 1,
                                                          value),
                                  residency ? agree(value_a(k), 10 + k,
                                                    value_b(k), 20 + 3 * k,
                                                    bit, value)
                                            : kNever)
                            << "bit " << bit << " stuck-at-" << value;
                    }
                }
            }

            // Units that saw no event: a neighbour of a probe inside its
            // block, and the first and last unit of a block no probe
            // touched.
            const auto is_probe = [&](std::uint64_t u) {
                return std::any_of(
                    probes.begin(), probes.end(),
                    [u](const Probe& p) { return p.chipUnit == u; });
            };
            const auto block_of = [](std::uint64_t u) {
                return u >> kUnitBlockBits;
            };
            std::vector<std::uint64_t> untouched;
            for (const Probe& p : probes) {
                for (std::uint64_t n : {p.chipUnit - 1, p.chipUnit + 1}) {
                    if (n < total && block_of(n) == block_of(p.chipUnit) &&
                        !is_probe(n)) {
                        untouched.push_back(n);
                    }
                }
            }
            for (std::uint64_t b = 0; b <= block_of(total - 1) && total > 0;
                 ++b) {
                const std::uint64_t first = b << kUnitBlockBits;
                const std::uint64_t last =
                    std::min(total, first + kUnitBlockUnits) - 1;
                if (std::none_of(probes.begin(), probes.end(),
                                 [&](const Probe& p) {
                                     return block_of(p.chipUnit) == b;
                                 })) {
                    untouched.push_back(first);
                    untouched.push_back(last);
                    ++untouched_blocks;
                    break;
                }
            }
            for (std::uint64_t u : untouched) {
                SCOPED_TRACE(testing::Message() << "untouched unit " << u);
                for (Cycle c : {Cycle{0}, Cycle{3}, Cycle{15}, Cycle{100}})
                    EXPECT_FALSE(windows.observed(spec.id, u, c));
                for (bool value : {false, true}) {
                    EXPECT_EQ(windows.stuckAgreeCycle(spec.id, u, 0, 4, value),
                              residency ? 0u : kNever);
                }
            }

            for (std::uint64_t u :
                 {total, total + 1, total + 4 * kUnitBlockUnits}) {
                SCOPED_TRACE(testing::Message() << "past-the-end unit " << u);
                for (Cycle c : {Cycle{0}, Cycle{15}, Cycle{100}})
                    EXPECT_TRUE(windows.observed(spec.id, u, c));
                for (bool value : {false, true})
                    EXPECT_EQ(windows.stuckAgreeCycle(spec.id, u, 0, 4, value),
                              kNever);
            }
        }
    }
    // Both kinds of edge the block map has to get right were exercised.
    EXPECT_GT(straddling, 0u);
    EXPECT_GT(untouched_blocks, 0u);
}

/** Stamps past 32 bits saturate: the word is never provably benign for
 *  the affected (bit, value) pairs, and exact for the others. */
TEST(FaultWindows, LateDisagreementSaturates)
{
    const GpuConfig cfg = test::smallSiConfig();
    const TargetStructure rf = TargetStructure::VectorRegisterFile;
    FaultWindowRecorder recorder(cfg, registeredStructures());
    const Cycle late = Cycle{0xFFFFFFFFu} + 5;
    recorder.onRead(rf, 0, 7, 0x1u, 10);
    recorder.onRead(rf, 0, 7, 0x3u, late);

    FaultWindows windows;
    recorder.finalize(windows);
    // Bit 1 read as 1 at `late`: stuck-at-0 can not be stamped.
    EXPECT_EQ(windows.stuckAgreeCycle(rf, 7, 1, 1, false), kNever);
    // Bit 1 read as 0 at cycle 10 only: stuck-at-1 agrees from 11.
    EXPECT_EQ(windows.stuckAgreeCycle(rf, 7, 1, 1, true), 11u);
    // Bit 0 is 1 at both reads: stuck-at-1 always agrees.
    EXPECT_EQ(windows.stuckAgreeCycle(rf, 7, 0, 1, true), 0u);
    EXPECT_TRUE(windows.observed(rf, 7, late));
    EXPECT_EQ(windows.intervalCount(), 1u);
}

/**
 * The residency slot cap (2^18 slots chip-wide): on the HD 7970, the
 * first 2^18 distinct words read keep exact thresholds, every later one
 * turns conservative (kNeverAgrees), and the observability windows of
 * all of them stay exact.
 */
TEST(FaultWindows, ResidencySlotCapTurnsLaterWordsConservative)
{
    const GpuConfig& cfg = gpuConfig(GpuModel::HdRadeon7970);
    const TargetStructure rf = TargetStructure::VectorRegisterFile;
    const auto words_per_sm = static_cast<std::uint32_t>(
        structureSpec(rf).aceUnitsPerSm(cfg));
    constexpr std::uint64_t kCap = std::uint64_t{1} << 18;
    constexpr std::uint64_t kWords = kCap + 8;
    ASSERT_GE(std::uint64_t{words_per_sm} * cfg.numSms, kWords);

    const auto value_of = [](std::uint64_t w) {
        return static_cast<Word>(w * 0x9E3779B9u);
    };
    const auto cycle_of = [](std::uint64_t w) { return Cycle{w / 64}; };

    FaultWindowRecorder recorder(cfg, registeredStructures());
    for (std::uint64_t w = 0; w < kWords; ++w) {
        recorder.onRead(rf, static_cast<SmId>(w / words_per_sm),
                        static_cast<std::uint32_t>(w % words_per_sm),
                        value_of(w), cycle_of(w));
    }
    FaultWindows windows;
    recorder.finalize(windows);
    ASSERT_TRUE(windows.enabled());
    EXPECT_EQ(windows.intervalCount(), kWords);

    for (std::uint64_t w = 0; w < kWords; ++w) {
        const Cycle c = cycle_of(w);
        ASSERT_TRUE(windows.observed(rf, w, c)) << "word " << w;
        ASSERT_FALSE(windows.observed(rf, w, c + 1)) << "word " << w;
        const Word v = value_of(w);
        for (unsigned b = 0; b < 32; ++b) {
            for (bool value : {false, true}) {
                const Cycle expected =
                    w >= kCap ? kNever
                              : ((((v >> b) & 1u) != 0) != value ? c + 1 : 0);
                ASSERT_EQ(windows.stuckAgreeCycle(rf, w, b, 1, value),
                          expected)
                    << "word " << w << " bit " << b << " stuck-at-" << value;
            }
        }
    }
}

/**
 * The chip-scoped L2 has one instance, not one per SM: its last unit is
 * recorded, and the unit past it is unknown, so observed() answers
 * conservatively (a tracker sized by numSms would answer "dead").
 */
TEST(FaultWindows, ChipScopedL2IsSizedOnce)
{
    const GpuConfig& cfg = gpuConfig(GpuModel::HdRadeon7970);
    const TargetStructure l2 = TargetStructure::L2Cache;
    const std::uint64_t units = structureAceUnitsTotal(cfg, l2);
    ASSERT_GT(cfg.numSms, 1u);

    FaultWindowRecorder recorder(cfg, registeredStructures());
    recorder.onRead(l2, 0, static_cast<std::uint32_t>(units - 1), 0, 5);
    FaultWindows windows;
    recorder.finalize(windows);
    ASSERT_TRUE(windows.enabled());
    EXPECT_TRUE(windows.observed(l2, units - 1, 5));
    EXPECT_FALSE(windows.observed(l2, units - 1, 6));
    for (Cycle c : {Cycle{0}, Cycle{5}, Cycle{100}})
        EXPECT_TRUE(windows.observed(l2, units, c)) << "cycle " << c;
}

/**
 * Cache rows record no value residency: their stuck-at forcing mutates
 * the raw line, so every cache word answers kNeverAgrees, and reading
 * 2^18 cache words leaves the chip-wide slot cap to the read-overlay
 * structures (an rf word read afterwards keeps its exact threshold).
 */
TEST(FaultWindows, CacheRowsRecordNoResidency)
{
    const GpuConfig& cfg = gpuConfig(GpuModel::HdRadeon7970);
    const TargetStructure kCaches[] = {TargetStructure::L2Cache,
                                       TargetStructure::L1DataCache,
                                       TargetStructure::L1InstructionCache};
    constexpr std::uint64_t kCap = std::uint64_t{1} << 18;

    FaultWindowRecorder recorder(cfg, registeredStructures());
    std::uint64_t fed = 0;
    for (TargetStructure s : kCaches) {
        const std::uint64_t total = structureAceUnitsTotal(cfg, s);
        const std::uint64_t per = structureSpec(s).aceUnitsPerSm(cfg);
        for (std::uint64_t w = 0; w < total && fed < kCap; ++w, ++fed) {
            recorder.onRead(s, static_cast<SmId>(w / per),
                            static_cast<std::uint32_t>(w % per), 0, 3);
        }
    }
    ASSERT_EQ(fed, kCap);
    const TargetStructure rf = TargetStructure::VectorRegisterFile;
    recorder.onRead(rf, 0, 9, 0x1u, 7);

    FaultWindows windows;
    recorder.finalize(windows);
    ASSERT_TRUE(windows.enabled());
    EXPECT_EQ(windows.stuckAgreeCycle(rf, 9, 0, 1, true), 0u);
    EXPECT_EQ(windows.stuckAgreeCycle(rf, 9, 0, 1, false), 8u);
    for (TargetStructure s : kCaches) {
        for (std::uint64_t w : {std::uint64_t{0}, std::uint64_t{1},
                                structureAceUnitsTotal(cfg, s) - 1}) {
            for (bool value : {false, true}) {
                EXPECT_EQ(windows.stuckAgreeCycle(s, w, 0, 1, value), kNever)
                    << targetStructureName(s) << " word " << w;
            }
        }
    }
}

} // namespace
} // namespace gpr
