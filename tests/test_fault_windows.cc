/**
 * @file
 * FaultWindowRecorder differential tests: seeded random event streams
 * are fed to the recorder and every query of the finalised
 * FaultWindows is checked against a brute-force oracle built from the
 * same stream — observed() at every cycle, stuckAgreeCycle() for every
 * aligned bit group of widths 1/2/4 and both forced values, and
 * intervalCount() — plus the residency slot cap and the sizing of the
 * chip-scoped L2.
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

/** One observer event, in stream order. */
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

/**
 * Random stream over a few words of each of rf/lds/srf, the untracked
 * predicate file and the three caches, on a 2-CU Southern Islands
 * device: cycles advance by 0..3, so several events share a cycle, and
 * values drift one bit at a time (so bits agree over long runs) with
 * occasional fresh values.  Allocations land on every structure; on a
 * cache row they are line refills, which the oracle sees as a write of
 * every unit of the line, and elsewhere they write nothing.  Cache sites
 * crowd into three lines per instance so refills hit read words.
 */
void
runRandomStream(std::uint64_t seed)
{
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const GpuConfig cfg = test::smallSiConfig();
    const TargetStructure kStructures[] = {
        TargetStructure::VectorRegisterFile,
        TargetStructure::SharedMemory,
        TargetStructure::ScalarRegisterFile,
        TargetStructure::PredicateFile,
        TargetStructure::L1DataCache,
        TargetStructure::L1InstructionCache,
        TargetStructure::L2Cache,
    };
    const auto line_units =
        static_cast<std::uint32_t>(cacheLineAceUnits(cfg.cacheLineWords()));

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
        ASSERT_GT(words, 0u) << targetStructureName(s);
        const bool cache = spec.kind == StructureKind::CacheArray;
        for (int i = 0; i < 12; ++i) {
            const SmId sm = spec.scope == StructureScope::Chip
                                ? 0
                                : static_cast<SmId>(rng.below(cfg.numSms));
            const auto word = static_cast<std::uint32_t>(
                cache ? rng.below(3) * line_units + rng.below(line_units)
                      : rng.below(words));
            sites.push_back({s, sm, word, static_cast<Word>(rng())});
        }
    }

    FaultWindowRecorder recorder(cfg);
    std::map<WordKey, WordOracle> oracle;
    Cycle cycle = 0;
    // About every sixth event is followed by one more on the same word
    // in the same cycle (write-then-read in one cycle opens an empty
    // window).
    Site* repeat = nullptr;
    for (int step = 0; step < 1500; ++step) {
        const bool same = repeat != nullptr;
        if (!same)
            cycle += rng.below(4);
        Site& site = same ? *repeat : sites[rng.below(sites.size())];
        repeat = !same && rng.below(6) == 0 ? &site : nullptr;
        const WordKey key{site.structure,
                          chipWord(cfg, site.structure, site.sm, site.word)};
        if (rng.below(8) == 0) {
            if (structureSpec(site.structure).kind !=
                StructureKind::CacheArray) {
                recorder.onAlloc(site.structure, site.sm, site.word, 1,
                                 cycle);
                continue;
            }
            const std::uint32_t first =
                site.word - site.word % line_units;
            recorder.onAlloc(site.structure, site.sm, first, line_units,
                             cycle);
            for (std::uint32_t u = first; u < first + line_units; ++u) {
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
            recorder.onRead(site.structure, site.sm, site.word, e.value,
                            e.cycle);
        } else {
            recorder.onWrite(site.structure, site.sm, site.word, e.cycle);
        }
        oracle[key].events.push_back(e);
    }
    const Cycle end = cycle + 2;

    FaultWindows windows;
    recorder.finalize(windows);
    ASSERT_TRUE(windows.enabled());

    std::size_t expected_intervals = 0;
    for (const auto& [key, word] : oracle) {
        const auto [structure, chip_word] = key;
        SCOPED_TRACE(testing::Message()
                     << targetStructureName(structure) << " word "
                     << chip_word);
        const bool tracked = structureSpec(structure).exactDeadWindows;
        if (tracked)
            expected_intervals += word.intervals();
        for (Cycle c = 0; c <= end; ++c) {
            ASSERT_EQ(windows.observed(structure, chip_word, c),
                      !tracked || word.observed(c))
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
    for (TargetStructure s : kStructures) {
        const StructureSpec& spec = structureSpec(s);
        if (!spec.exactDeadWindows)
            continue;
        for (int i = 0; i < 16; ++i) {
            const SmId sm = spec.scope == StructureScope::Chip
                                ? 0
                                : static_cast<SmId>(rng.below(cfg.numSms));
            const auto w = static_cast<std::uint32_t>(
                rng.below(spec.aceUnitsPerSm(cfg)));
            const std::uint64_t chip_word = chipWord(cfg, s, sm, w);
            if (oracle.count({s, chip_word}))
                continue;
            EXPECT_FALSE(windows.observed(s, chip_word, end / 2));
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

/** Stamps past 32 bits saturate: the word is never provably benign for
 *  the affected (bit, value) pairs, and exact for the others. */
TEST(FaultWindows, LateDisagreementSaturates)
{
    const GpuConfig cfg = test::smallSiConfig();
    const TargetStructure rf = TargetStructure::VectorRegisterFile;
    FaultWindowRecorder recorder(cfg);
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

    FaultWindowRecorder recorder(cfg);
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

    FaultWindowRecorder recorder(cfg);
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

    FaultWindowRecorder recorder(cfg);
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
