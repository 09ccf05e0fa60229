/** @file Parameterized integration tests: every benchmark on every GPU
 *  runs to completion and verifies its golden output. */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/string_utils.hh"
#include "reliability/ace.hh"

#include "sim_test_util.hh"
#include "workloads/workloads.hh"

namespace gpr {
namespace {

using Combo = std::tuple<std::string_view, GpuModel>;

class WorkloadOnGpu : public ::testing::TestWithParam<Combo>
{
};

TEST_P(WorkloadOnGpu, GoldenRunVerifies)
{
    const auto [name, model] = GetParam();
    const GpuConfig& cfg = gpuConfig(model);
    const auto wl = makeWorkload(name);
    const WorkloadInstance inst = wl->build(cfg.dialect, {});

    Gpu gpu(cfg);
    const RunResult r = gpu.run(inst.program, inst.launch, inst.image);
    ASSERT_TRUE(r.clean()) << trapKindName(r.trap);
    std::string why;
    EXPECT_TRUE(verifyOutputs(inst, r.memory, &why)) << why;

    // Occupancies are proper fractions; the kernel did real work.
    EXPECT_GT(r.stats.cycles, 0u);
    EXPECT_GT(r.stats.warpInstructions, 0u);
    EXPECT_GT(r.stats.avgRegFileOccupancy, 0.0);
    EXPECT_LE(r.stats.avgRegFileOccupancy, 1.0);
    EXPECT_GE(r.stats.avgSmemOccupancy, 0.0);
    EXPECT_LE(r.stats.avgSmemOccupancy, 1.0);
    EXPECT_LE(r.stats.avgWarpOccupancy, 1.0);

    if (wl->usesLocalMemory()) {
        EXPECT_GT(r.stats.sharedAccesses, 0u);
        EXPECT_GT(r.stats.avgSmemOccupancy, 0.0);
        EXPECT_GT(inst.program.smemBytes(), 0u);
    } else {
        EXPECT_EQ(inst.program.smemBytes(), 0u);
    }
}

TEST_P(WorkloadOnGpu, DialectLoweringMatchesVendor)
{
    const auto [name, model] = GetParam();
    const GpuConfig& cfg = gpuConfig(model);
    const auto wl = makeWorkload(name);
    const WorkloadInstance inst = wl->build(cfg.dialect, {});

    EXPECT_EQ(inst.program.dialect(), cfg.dialect);
    if (cfg.dialect == IsaDialect::SouthernIslands) {
        // Uniform values must have been lowered onto the scalar file.
        EXPECT_GT(inst.program.numSRegs(), 0u) << "no scalar registers";
    } else {
        EXPECT_EQ(inst.program.numSRegs(), 0u);
    }
    EXPECT_GT(inst.program.numVRegs(), 0u);
}

/**
 * One cell's golden run and ACE at the default workload seed, pinned
 * cycle-exact: the golden cycle count and warp instructions, and an
 * FNV-1a digest of everything else (goldenDigest).  A simulator change
 * that moves timing, an instruction or transaction count, an occupancy
 * average or an ACE interval fails here; a change meant to move them
 * regenerates the table from the rows the failing cells print.
 */
struct GoldenPin
{
    std::string_view workload;
    std::string_view gpu; ///< gpuShortName()
    Cycle cycles;
    std::uint64_t warpInstructions;
    std::uint64_t digest;
};

// clang-format off
constexpr GoldenPin kGoldenPins[] = {
    // workload     gpu           cycles  warp insts  digest
    {"backprop",   "7970",       3083,      20096, 0xd669df5892066e30ULL},
    {"backprop",   "fx5600",     9410,      38208, 0x7347382dcf1a956eULL},
    {"backprop",   "fx5800",     4131,      38208, 0x637bc2296c45141fULL},
    {"backprop",   "gtx480",     3331,      38208, 0xc8d3983bed67a6b1ULL},
    {"dwtHaar1D",  "7970",       1524,       6656, 0x8f07cd0021099cd2ULL},
    {"dwtHaar1D",  "fx5600",     4466,      13312, 0xf1bea713e209ed65ULL},
    {"dwtHaar1D",  "fx5800",     1896,      13312, 0xfa4576f83f3abb61ULL},
    {"dwtHaar1D",  "gtx480",     1646,      13312, 0xb0e32f9101ecd9c4ULL},
    {"gaussian",   "7970",       1620,       1856, 0x5569db646de873e2ULL},
    {"gaussian",   "fx5600",     3264,       3712, 0x9fc57a98af4f2bd7ULL},
    {"gaussian",   "fx5800",     1914,       3712, 0xb29aba3e18a9ba2eULL},
    {"gaussian",   "gtx480",     1860,       3712, 0xaab777c9b0c45be6ULL},
    {"histogram",  "7970",       2506,       7424, 0x8f1b639d1b566c36ULL},
    {"histogram",  "fx5600",    21677,      14848, 0xeee2ea5c29cd820aULL},
    {"histogram",  "fx5800",     2794,      14848, 0x891574fcf4b60062ULL},
    {"histogram",  "gtx480",     2596,      14848, 0x83074c4e313d5877ULL},
    {"kmeans",     "7970",      16093,      18816, 0x178b4a2283be667aULL},
    {"kmeans",     "fx5600",    40115,      37632, 0xf54aa5d3993dd234ULL},
    {"kmeans",     "fx5800",    19198,      37632, 0x81fd27cddb785911ULL},
    {"kmeans",     "gtx480",    18139,      37632, 0xabdc5650562f1bfdULL},
    {"matrixMul",  "7970",      18088,     131840, 0xc2ed14ad0188330bULL},
    {"matrixMul",  "fx5600",    48829,     263680, 0x89c450ab1b9fd3adULL},
    {"matrixMul",  "fx5800",    28305,     263680, 0x948421dcb2431a6bULL},
    {"matrixMul",  "gtx480",    18015,     263680, 0xebc016ab314a9b92ULL},
    {"reduction",  "7970",       1988,      17792, 0xd658231d84b3ef54ULL},
    {"reduction",  "fx5600",     5219,      33600, 0x6eb34d1901afa3d4ULL},
    {"reduction",  "fx5800",     2960,      33600, 0xff13640ecc8f4e8cULL},
    {"reduction",  "gtx480",     2286,      33600, 0xe91a04ff927052f0ULL},
    {"scan",       "7970",       4820,      50752, 0x2ffcff8e11ef6a45ULL},
    {"scan",       "fx5600",    17140,      91008, 0x04ed38e99490dcdcULL},
    {"scan",       "fx5800",     8097,      91008, 0x67e0a2d631b7d798ULL},
    {"scan",       "gtx480",     6796,      91008, 0x23bf356062ab5d96ULL},
    {"transpose",  "7970",       1507,       6912, 0xe8912af27bd2694eULL},
    {"transpose",  "fx5600",     4986,      13824, 0xf7c996e79c016916ULL},
    {"transpose",  "fx5800",     1868,      13824, 0xc52e248265a457c9ULL},
    {"transpose",  "gtx480",     1609,      13824, 0x21edad6571baef50ULL},
    {"vectoradd",  "7970",       2516,       9216, 0x590a9549f7891ab0ULL},
    {"vectoradd",  "fx5600",     6349,      18432, 0x11eb2632297d7f7dULL},
    {"vectoradd",  "fx5800",     3210,      18432, 0x44dd54abc423a9d6ULL},
    {"vectoradd",  "gtx480",     3110,      18432, 0x74718115e5c5f20fULL},
};
// clang-format on

/** Every SimStats field but cycles and warpInstructions, occupancy
 *  averages rendered exactly with %a. */
std::string
statsText(const SimStats& s)
{
    return strprintf(
        "%llu|%llu|%llu|%llu|%llu|%llu|%llu|%llu|%llu|%a|%a|%a|%a",
        static_cast<unsigned long long>(s.threadInstructions),
        static_cast<unsigned long long>(s.globalLoads),
        static_cast<unsigned long long>(s.globalStores),
        static_cast<unsigned long long>(s.globalTransactions),
        static_cast<unsigned long long>(s.sharedAccesses),
        static_cast<unsigned long long>(s.sharedBankConflictReplays),
        static_cast<unsigned long long>(s.barriersExecuted),
        static_cast<unsigned long long>(s.divergenceEvents),
        static_cast<unsigned long long>(s.blocksCompleted),
        s.avgRegFileOccupancy, s.avgScalarRegOccupancy,
        s.avgSmemOccupancy, s.avgWarpOccupancy);
}

/** FNV-1a over statsText() and every structure's ACE unit-cycles in
 *  both modes. */
std::uint64_t
goldenDigest(const SimStats& stats, const AceResult& standard,
             const AceResult& conservative)
{
    std::string text = statsText(stats);
    for (const StructureSpec& spec : structureRegistry()) {
        text += strprintf(
            "|%s:%llu:%llu", std::string(spec.shortName).c_str(),
            static_cast<unsigned long long>(
                standard.forStructure(spec.id).aceUnitCycles),
            static_cast<unsigned long long>(
                conservative.forStructure(spec.id).aceUnitCycles));
    }
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

TEST_P(WorkloadOnGpu, GoldenRunAndAcePinned)
{
    const auto [name, model] = GetParam();
    const GpuConfig& cfg = gpuConfig(model);
    const WorkloadInstance inst = makeWorkload(name)->build(cfg.dialect, {});

    Gpu gpu(cfg);
    const RunResult r = gpu.run(inst.program, inst.launch, inst.image);
    ASSERT_TRUE(r.clean()) << trapKindName(r.trap);
    const AceResult standard = runAceAnalysis(cfg, inst, AceMode::Standard);
    const AceResult conservative =
        runAceAnalysis(cfg, inst, AceMode::Conservative);
    // The ACE observer never perturbs the run it observes.
    for (const AceResult* ace : {&standard, &conservative}) {
        EXPECT_EQ(ace->goldenStats.cycles, r.stats.cycles);
        EXPECT_EQ(ace->goldenStats.warpInstructions,
                  r.stats.warpInstructions);
        EXPECT_EQ(statsText(ace->goldenStats), statsText(r.stats));
    }

    const std::uint64_t digest =
        goldenDigest(r.stats, standard, conservative);
    const std::string row = strprintf(
        "{\"%s\", \"%s\", %llu, %llu, 0x%016llxULL},",
        std::string(name).c_str(), std::string(gpuShortName(model)).c_str(),
        static_cast<unsigned long long>(r.stats.cycles),
        static_cast<unsigned long long>(r.stats.warpInstructions),
        static_cast<unsigned long long>(digest));
    const auto pin = std::find_if(
        std::begin(kGoldenPins), std::end(kGoldenPins),
        [&, name = name, model = model](const GoldenPin& p) {
            return p.workload == name && p.gpu == gpuShortName(model);
        });
    ASSERT_NE(pin, std::end(kGoldenPins)) << "no pinned row; actual: " << row;
    EXPECT_EQ(r.stats.cycles, pin->cycles) << "actual: " << row;
    EXPECT_EQ(r.stats.warpInstructions, pin->warpInstructions)
        << "actual: " << row;
    EXPECT_EQ(digest, pin->digest) << "actual: " << row;
}

std::vector<Combo>
allCombos()
{
    std::vector<Combo> combos;
    for (auto name : allWorkloadNames())
        for (GpuModel model : allGpuModels())
            combos.emplace_back(name, model);
    return combos;
}

std::string
comboName(const ::testing::TestParamInfo<Combo>& info)
{
    std::string n = std::string(std::get<0>(info.param)) + "_";
    switch (std::get<1>(info.param)) {
      case GpuModel::HdRadeon7970:
        n += "hd7970";
        break;
      case GpuModel::QuadroFx5600:
        n += "fx5600";
        break;
      case GpuModel::QuadroFx5800:
        n += "fx5800";
        break;
      case GpuModel::GeforceGtx480:
        n += "gtx480";
        break;
    }
    return n;
}

INSTANTIATE_TEST_SUITE_P(AllPairs, WorkloadOnGpu,
                         ::testing::ValuesIn(allCombos()), comboName);

TEST(WorkloadRegistry, TenBenchmarksInFigureOrder)
{
    const auto& names = allWorkloadNames();
    ASSERT_EQ(names.size(), 10u);
    EXPECT_EQ(names.front(), "backprop");
    EXPECT_EQ(names.back(), "vectoradd");
    // Sorted as in the paper's figures.
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end(),
                               [](auto a, auto b) {
                                   return toLower(std::string(a)) <
                                          toLower(std::string(b));
                               }));
}

TEST(WorkloadRegistry, LocalMemorySetMatchesFigure2)
{
    // Fig. 2 has exactly these seven benchmarks.
    const std::set<std::string_view> expected = {
        "backprop",  "dwtHaar1D", "histogram", "matrixMul",
        "reduction", "scan",      "transpose"};
    std::set<std::string_view> actual(localMemoryWorkloadNames().begin(),
                                      localMemoryWorkloadNames().end());
    EXPECT_EQ(actual, expected);

    // And usesLocalMemory() agrees with the registry split.
    for (auto name : allWorkloadNames()) {
        EXPECT_EQ(makeWorkload(name)->usesLocalMemory(),
                  expected.count(name) == 1)
            << name;
    }
}

TEST(WorkloadRegistry, UnknownNameIsFatal)
{
    EXPECT_THROW(makeWorkload("nonesuch"), FatalError);
}

TEST(WorkloadRegistry, SeedChangesInputsButStaysValid)
{
    const GpuConfig cfg = test::smallCudaConfig();
    const auto wl = makeWorkload("vectoradd");
    WorkloadParams p1, p2;
    p1.seed = 1;
    p2.seed = 2;
    const WorkloadInstance a = wl->build(cfg.dialect, p1);
    const WorkloadInstance b = wl->build(cfg.dialect, p2);

    // Different inputs...
    bool any_diff = false;
    for (std::uint32_t i = 0; i < a.image.sizeWords() && !any_diff; ++i)
        any_diff = a.image.readWord(i * 4) != b.image.readWord(i * 4);
    EXPECT_TRUE(any_diff);

    // ...but both verify on their own goldens.
    Gpu gpu(cfg);
    for (const WorkloadInstance* inst : {&a, &b}) {
        const RunResult r =
            gpu.run(inst->program, inst->launch, inst->image);
        ASSERT_TRUE(r.clean());
        std::string why;
        EXPECT_TRUE(verifyOutputs(*inst, r.memory, &why)) << why;
    }
}

} // namespace
} // namespace gpr
