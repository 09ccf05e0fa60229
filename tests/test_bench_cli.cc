/** @file Tests for the spec-based bench command-line plumbing. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/bench_cli.hh"

namespace gpr {
namespace {

bool
parseArgs(BenchCli& cli, std::vector<std::string> args)
{
    std::vector<char*> argv;
    // gpr:guarded_by(single-threaded: test main thread only)
    static std::string prog = "bench";
    argv.push_back(prog.data());
    for (auto& a : args)
        argv.push_back(a.data());
    return cli.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchCli, DefaultsAreSane)
{
    BenchCli cli;
    ASSERT_TRUE(parseArgs(cli, {}));
    EXPECT_EQ(cli.spec.plan.injections, 150u);
    EXPECT_DOUBLE_EQ(cli.spec.plan.confidence, 0.99);
    EXPECT_FALSE(cli.spec.aceOnly);
    EXPECT_FALSE(cli.csv);
    EXPECT_FALSE(cli.dryRun);
    EXPECT_FALSE(cli.dumpSpec);
    EXPECT_TRUE(cli.spec.workloads.empty());
    EXPECT_TRUE(cli.spec.gpus.empty());
}

TEST(BenchCli, ParsesAllFlags)
{
    BenchCli cli;
    ASSERT_TRUE(parseArgs(cli, {"--injections=2000", "--confidence=0.95",
                                "--seed=42", "--jobs=3",
                                "--workloads=scan,kmeans",
                                "--gpus=gtx480,7970", "--ace-only",
                                "--csv"}));
    EXPECT_EQ(cli.spec.plan.injections, 2000u);
    EXPECT_DOUBLE_EQ(cli.spec.plan.confidence, 0.95);
    EXPECT_EQ(cli.spec.seed, 42u);
    EXPECT_EQ(cli.spec.jobs, 3u);
    ASSERT_EQ(cli.spec.workloads.size(), 2u);
    EXPECT_EQ(cli.spec.workloads[0], "scan");
    ASSERT_EQ(cli.spec.gpus.size(), 2u);
    EXPECT_EQ(cli.spec.gpus[0], GpuModel::GeforceGtx480);
    EXPECT_EQ(cli.spec.gpus[1], GpuModel::HdRadeon7970);
    EXPECT_TRUE(cli.spec.aceOnly);
    EXPECT_TRUE(cli.csv);
}

TEST(BenchCli, ParsesAdaptiveFlags)
{
    BenchCli cli;
    ASSERT_TRUE(parseArgs(cli, {"--margin=0.05", "--confidence=0.9",
                                "--max-injections=300"}));
    EXPECT_TRUE(cli.spec.plan.adaptive());
    EXPECT_DOUBLE_EQ(cli.spec.plan.margin, 0.05);
    EXPECT_DOUBLE_EQ(cli.spec.plan.confidence, 0.9);
    EXPECT_EQ(cli.spec.plan.maxInjections, 300u);
    EXPECT_NO_THROW(cli.spec.validate());

    BenchCli bad;
    EXPECT_THROW(parseArgs(bad, {"--margin=1.5"}), FatalError);
    // A cap without a margin parses but fails validation.
    BenchCli capped;
    ASSERT_TRUE(parseArgs(capped, {"--max-injections=300"}));
    EXPECT_THROW(capped.spec.validate(), FatalError);
}

TEST(BenchCli, AdaptiveHeaderAndDryRun)
{
    BenchCli cli;
    ASSERT_TRUE(parseArgs(cli, {"--workloads=vectoradd", "--gpus=fx5600",
                                "--margin=0.08", "--confidence=0.9",
                                "--dry-run"}));
    std::ostringstream header;
    cli.printHeader(header, "T");
    EXPECT_NE(header.str().find("adaptive stopping"), std::string::npos);

    std::ostringstream os;
    EXPECT_TRUE(cli.runMetaActions(os));
    // The plan is the worst case; the note says campaigns stop early.
    EXPECT_NE(os.str().find("adaptive: worst case"), std::string::npos)
        << os.str();
}

/** The FatalError message parsing @p arg throws ("" if none). */
std::string
parseError(const std::string& arg)
{
    BenchCli cli;
    try {
        parseArgs(cli, {arg});
    } catch (const FatalError& e) {
        return e.what();
    }
    return "";
}

TEST(BenchCli, RejectsBadValues)
{
    // A malformed or out-of-range value is refused with the flag and
    // the value named, never wrapped, truncated or replaced.
    for (const std::string arg :
         {"--injections=xyz", "--confidence=1.5", "--checkpoints=4294967296",
          "--jobs=4294967297", "--seed=-1"}) {
        const std::string what = parseError(arg);
        EXPECT_NE(what.find(arg.substr(0, arg.find('='))), std::string::npos)
            << arg << ": " << what;
        EXPECT_NE(what.find(arg.substr(arg.find('=') + 1)), std::string::npos)
            << arg << ": " << what;
    }
    // Only an unknown flag and --help print the usage text instead.
    BenchCli c;
    EXPECT_FALSE(parseArgs(c, {"--no-such-flag"}));
    BenchCli d;
    EXPECT_FALSE(parseArgs(d, {"--help"}));
}

TEST(BenchCli, CampaignCarriesEveryCampaignField)
{
    BenchCli cli;
    ASSERT_TRUE(parseArgs(cli, {"--injections=70", "--confidence=0.9",
                                "--behavior=stuck-at-1",
                                "--pattern=adjacent-double",
                                "--checkpoints=0", "--jobs=3",
                                "--seed=9"}));
    const CampaignConfig cc = cli.campaign();
    EXPECT_EQ(cc.plan.injections, 70u);
    EXPECT_DOUBLE_EQ(cc.plan.confidence, 0.9);
    EXPECT_EQ(cc.seed, 9u);
    EXPECT_EQ(cc.numThreads, 3u);
    EXPECT_EQ(cc.checkpoints, 0u);
    EXPECT_EQ(cc.shape.behavior, FaultBehavior::StuckAt1);
    EXPECT_EQ(cc.shape.pattern, FaultPattern::AdjacentDouble);
    EXPECT_FALSE(cc.keepRecords);

    // Without campaign flags the conversion is a default campaign at
    // the bench's plan, so default bench output does not move.
    BenchCli plain;
    ASSERT_TRUE(parseArgs(plain, {}));
    const CampaignConfig defaults = plain.campaign();
    EXPECT_EQ(defaults.plan.injections, 150u);
    EXPECT_EQ(defaults.seed, CampaignConfig{}.seed);
    EXPECT_EQ(defaults.numThreads, CampaignConfig{}.numThreads);
    EXPECT_EQ(defaults.checkpoints, CampaignConfig{}.checkpoints);
    EXPECT_TRUE(defaults.shape.isDefault());
}

TEST(BenchCli, UnknownGpuIsFatal)
{
    BenchCli cli;
    EXPECT_THROW(parseArgs(cli, {"--gpus=riva128"}), FatalError);
}

TEST(BenchCli, UnknownWorkloadIsFatal)
{
    // Workload typos fail at parse time with the registered names in
    // the message, not deep inside the study when makeWorkload trips.
    BenchCli cli;
    try {
        parseArgs(cli, {"--workloads=vectorad"});
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("vectoradd"),
                  std::string::npos);
    }
}

TEST(BenchCli, ZeroInjectionPlanIsFatalAtRunTimeUnlessAceOnly)
{
    // Parsing succeeds (harnesses may adjust the spec afterwards, e.g.
    // fig3 flips ace-only); the spec fails validation when acted on.
    BenchCli fi;
    ASSERT_TRUE(parseArgs(fi, {"--injections=0", "--dry-run"}));
    std::ostringstream os;
    EXPECT_THROW(fi.runMetaActions(os), FatalError);
    EXPECT_THROW(fi.spec.validate(), FatalError);

    BenchCli ace;
    ASSERT_TRUE(parseArgs(ace, {"--injections=0", "--ace-only"}));
    EXPECT_NO_THROW(ace.spec.validate());
}

TEST(BenchCli, SpecFlagLoadsBaselineAndLaterFlagsOverride)
{
    const std::string path = testing::TempDir() + "bench_cli_spec.json";
    {
        std::ofstream out(path);
        out << R"({"grid":{"workloads":["scan"],"gpus":["gtx480"]},)"
            << R"("campaign":{"injections":77,"seed":5}})";
    }

    BenchCli plain;
    ASSERT_TRUE(parseArgs(plain, {"--spec=" + path}));
    EXPECT_EQ(plain.spec.plan.injections, 77u);
    EXPECT_EQ(plain.spec.seed, 5u);
    ASSERT_EQ(plain.spec.workloads.size(), 1u);
    EXPECT_EQ(plain.spec.workloads[0], "scan");

    BenchCli overridden;
    ASSERT_TRUE(
        parseArgs(overridden, {"--spec=" + path, "--injections=99"}));
    EXPECT_EQ(overridden.spec.plan.injections, 99u);
    EXPECT_EQ(overridden.spec.seed, 5u);
    std::remove(path.c_str());
}

TEST(BenchCli, DumpSpecRoundTrips)
{
    BenchCli cli;
    ASSERT_TRUE(parseArgs(cli, {"--workloads=scan", "--gpus=7970",
                                "--injections=10", "--dump-spec"}));
    EXPECT_TRUE(cli.dumpSpec);
    std::ostringstream os;
    EXPECT_TRUE(cli.runMetaActions(os));
    const StudySpec back = StudySpec::fromJson(os.str());
    EXPECT_TRUE(back == cli.spec);
}

TEST(BenchCli, DryRunPrintsThePlan)
{
    BenchCli cli;
    ASSERT_TRUE(parseArgs(cli, {"--workloads=vectoradd", "--gpus=fx5600",
                                "--injections=24", "--shards=4",
                                "--dry-run"}));
    std::ostringstream os;
    EXPECT_TRUE(cli.runMetaActions(os));
    const std::string text = os.str();
    // vectoradd on FX 5600: RF + pred + simt + l1d/l1i/l2, 4 shards
    // each.
    EXPECT_NE(text.find("6 campaigns"), std::string::npos) << text;
    EXPECT_NE(text.find("24 shards"), std::string::npos) << text;
    EXPECT_NE(text.find("144 injections"), std::string::npos) << text;
    EXPECT_NE(text.find(cli.spec.campaignHashHex()), std::string::npos);
}

TEST(BenchCli, NoMetaActionByDefault)
{
    BenchCli cli;
    ASSERT_TRUE(parseArgs(cli, {}));
    std::ostringstream os;
    EXPECT_FALSE(cli.runMetaActions(os));
    EXPECT_TRUE(os.str().empty());
}

TEST(BenchCli, HeaderMentionsPlan)
{
    BenchCli cli;
    ASSERT_TRUE(parseArgs(cli, {"--injections=2000"}));
    std::ostringstream os;
    cli.printHeader(os, "Test Title");
    const std::string text = os.str();
    EXPECT_NE(text.find("Test Title"), std::string::npos);
    EXPECT_NE(text.find("2000 injections"), std::string::npos);
    EXPECT_NE(text.find("2.88"), std::string::npos);
}

TEST(BenchCli, AceOnlyHeader)
{
    BenchCli cli;
    ASSERT_TRUE(parseArgs(cli, {"--ace-only"}));
    std::ostringstream os;
    cli.printHeader(os, "T");
    EXPECT_NE(os.str().find("ACE analysis only"), std::string::npos);
}

} // namespace
} // namespace gpr
