/** @file Tests for the declarative StudySpec experiment description. */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/export.hh"
#include "core/orchestrator.hh"
#include "core/study_spec.hh"

namespace gpr {
namespace {

StudySpec
sampleSpec()
{
    StudySpec spec;
    spec.workloads = {"vectoradd", "reduction"};
    spec.gpus = {GpuModel::QuadroFx5600, GpuModel::HdRadeon7970};
    spec.structures = {TargetStructure::VectorRegisterFile,
                       TargetStructure::PredicateFile};
    spec.plan.injections = 24;
    spec.plan.confidence = 0.95;
    spec.seed = 0xFEEDFACECAFEBEEFULL; // above 2^53: exercises exact u64
    spec.workloadSeed = 7;
    spec.fitParams.rawFitPerMbit = 850.0;
    spec.jobs = 3;
    spec.shardsPerCampaign = 4;
    spec.checkpoints = 2;
    spec.storePath = "spec_store.jsonl";
    spec.verbose = false;
    return spec;
}

TEST(StudySpec, JsonRoundTripIsBitIdentical)
{
    const StudySpec spec = sampleSpec();
    const std::string json = spec.toJsonString();
    const StudySpec back = StudySpec::fromJson(json);
    EXPECT_TRUE(back == spec);
    // The serialized form itself is stable: spec -> json -> spec -> json
    // reproduces the byte-identical document.
    EXPECT_EQ(back.toJsonString(), json);
}

TEST(StudySpec, DefaultSpecRoundTripsToo)
{
    const StudySpec spec = paperStudySpec();
    const StudySpec back = StudySpec::fromJson(spec.toJsonString());
    EXPECT_TRUE(back == spec);
}

TEST(StudySpec, FromJsonAcceptsAnyKeyOrderAndMissingSections)
{
    // Keys reordered relative to toJson() output, sections omitted.
    const StudySpec a = StudySpec::fromJson(
        R"({"campaign":{"seed":9,"injections":50},)"
        R"("grid":{"gpus":["7970"],"workloads":["scan"]}})");
    EXPECT_EQ(a.plan.injections, 50u);
    EXPECT_EQ(a.seed, 9u);
    ASSERT_EQ(a.gpus.size(), 1u);
    EXPECT_EQ(a.gpus[0], GpuModel::HdRadeon7970);
    EXPECT_EQ(a.workloads, std::vector<std::string>{"scan"});
    // Missing fields keep their defaults.
    EXPECT_DOUBLE_EQ(a.plan.confidence, 0.99);
    EXPECT_EQ(a.checkpoints, kDefaultCheckpoints);

    const StudySpec b = StudySpec::fromJson(
        R"({"grid":{"workloads":["scan"],"gpus":["7970"]},)"
        R"("campaign":{"injections":50,"seed":9}})");
    EXPECT_TRUE(a == b);
    EXPECT_EQ(a.campaignHash(), b.campaignHash());
}

TEST(StudySpec, ValidationErrorsArePrecise)
{
    // Unknown workload (named in the message, with the registry).
    try {
        StudySpec::fromJson(R"({"grid":{"workloads":["vectoradz"]}})");
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("vectoradz"), std::string::npos) << what;
        EXPECT_NE(what.find("vectoradd"), std::string::npos) << what;
    }

    // Unknown GPU and structure names.
    EXPECT_THROW(
        StudySpec::fromJson(R"({"grid":{"gpus":["riva128"]}})"),
        FatalError);
    EXPECT_THROW(
        StudySpec::fromJson(R"({"grid":{"structures":["l3"]}})"),
        FatalError);

    // Zero-injection plan without ace_only.
    EXPECT_THROW(
        StudySpec::fromJson(R"({"campaign":{"injections":0}})"),
        FatalError);
    EXPECT_NO_THROW(StudySpec::fromJson(
        R"({"campaign":{"injections":0,"ace_only":true}})"));

    // Confidence outside (0, 1); resume without a store.
    EXPECT_THROW(
        StudySpec::fromJson(R"({"campaign":{"confidence":1.5}})"),
        FatalError);
    EXPECT_THROW(
        StudySpec::fromJson(R"({"execution":{"resume":true}})"),
        FatalError);

    // Execution counts that do not fit their field are refused by
    // name, not wrapped: 2^32 checkpoints must not become 0 (the
    // legacy engine).
    for (const char* field : {"checkpoints", "jobs"}) {
        try {
            StudySpec::fromJson(std::string(R"({"execution":{")") + field +
                                R"(":4294967296}})");
            FAIL() << "expected FatalError for " << field;
        } catch (const FatalError& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(field), std::string::npos) << what;
            EXPECT_NE(what.find("4294967296"), std::string::npos) << what;
        }
    }

    // Unknown keys are typos, not extensions to ignore silently.
    try {
        StudySpec::fromJson(R"({"campaign":{"injectons":10}})");
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("injectons"),
                  std::string::npos);
    }
    EXPECT_THROW(StudySpec::fromJson(R"({"gird":{}})"), FatalError);

    // A deeply nested spec is refused with the byte offset, where an
    // unbounded recursive parser would exhaust the stack.
    try {
        StudySpec::fromJson(std::string(200000, '['));
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "at byte 64: nesting deeper than 64 levels"),
                  std::string::npos)
            << e.what();
    }
}

TEST(StudySpec, HashIgnoresOrderingDuplicatesAndSpelledOutDefaults)
{
    const StudySpec base = sampleSpec();

    // Grid listing order does not change the campaign identity.
    StudySpec reordered = base;
    std::reverse(reordered.workloads.begin(), reordered.workloads.end());
    std::reverse(reordered.gpus.begin(), reordered.gpus.end());
    std::reverse(reordered.structures.begin(), reordered.structures.end());
    EXPECT_EQ(reordered.campaignHash(), base.campaignHash());

    // Duplicate grid entries collapse to one cell in the orchestrator;
    // the hash agrees.
    StudySpec duplicated = base;
    duplicated.workloads.push_back("vectoradd");
    EXPECT_EQ(duplicated.campaignHash(), base.campaignHash());

    // Empty means all: spelling the defaults out hashes identically.
    StudySpec implicit_all;
    StudySpec explicit_all;
    for (std::string_view name : allWorkloadNames())
        explicit_all.workloads.emplace_back(name);
    explicit_all.gpus = allGpuModels();
    for (const StructureSpec& s : structureRegistry())
        explicit_all.structures.push_back(s.id);
    EXPECT_EQ(explicit_all.campaignHash(), implicit_all.campaignHash());
}

TEST(StudySpec, HashCoversCampaignFieldsButNotExecutionKnobs)
{
    const StudySpec base = sampleSpec();

    StudySpec execution_only = base;
    execution_only.jobs = 16;
    execution_only.shardsPerCampaign = 1;
    execution_only.checkpoints = 0;
    execution_only.storePath = "elsewhere.jsonl";
    execution_only.verbose = true;
    EXPECT_EQ(execution_only.campaignHash(), base.campaignHash());

    StudySpec reseeded = base;
    reseeded.seed = base.seed + 1;
    EXPECT_NE(reseeded.campaignHash(), base.campaignHash());

    StudySpec resized = base;
    resized.plan.injections = 25;
    EXPECT_NE(resized.campaignHash(), base.campaignHash());

    StudySpec sliced = base;
    sliced.workloads.pop_back();
    EXPECT_NE(sliced.campaignHash(), base.campaignHash());

    EXPECT_EQ(base.campaignHashHex().size(), 16u);
}

TEST(StudySpec, PresetsDescribeTheIntendedExperiments)
{
    const StudySpec paper = paperStudySpec();
    EXPECT_TRUE(paper.workloads.empty()); // all ten
    EXPECT_TRUE(paper.gpus.empty());      // all four
    EXPECT_EQ(paper.plan.injections, 2000u);
    EXPECT_DOUBLE_EQ(paper.plan.confidence, 0.99);
    EXPECT_EQ(paper.resolvedWorkloads().size(), 10u);
    EXPECT_EQ(paper.resolvedGpus().size(), 4u);
    EXPECT_EQ(paper.resolvedStructures().size(), kNumTargetStructures);
}

TEST(StudySpec, NameListParsersValidateAgainstTheRegistries)
{
    EXPECT_EQ(parseWorkloadList("scan, kmeans"),
              (std::vector<std::string>{"scan", "kmeans"}));
    EXPECT_THROW(parseWorkloadList("scan,nope"), FatalError);
    EXPECT_EQ(parseGpuList("gtx480,7970"),
              (std::vector<GpuModel>{GpuModel::GeforceGtx480,
                                     GpuModel::HdRadeon7970}));
    EXPECT_THROW(parseGpuList("gtx480,voodoo2"), FatalError);
    EXPECT_EQ(parseStructureList("rf,simt"),
              (std::vector<TargetStructure>{
                  TargetStructure::VectorRegisterFile,
                  TargetStructure::SimtStack}));
    EXPECT_THROW(parseStructureList("rf,l1"), FatalError);
}

TEST(StudySpec, PlanStudyCostsTheSpecWithoutExecuting)
{
    StudySpec spec;
    spec.workloads = {"vectoradd", "reduction"};
    spec.gpus = {GpuModel::QuadroFx5600};
    spec.plan.injections = 24;
    spec.shardsPerCampaign = 4;
    const StudyPlan plan = planStudy(spec);
    EXPECT_EQ(plan.gridCells, 2u);
    EXPECT_EQ(plan.goldenRuns, 2u);
    // vectoradd: RF + pred + simt + l1d/l1i/l2; reduction adds LDS
    // -> 13 campaigns.
    EXPECT_EQ(plan.campaigns.size(), 13u);
    EXPECT_EQ(plan.totalShards(), 52u);
    EXPECT_EQ(plan.totalInjections(), 13u * 24u);
    for (const StudyPlanCampaign& c : plan.campaigns) {
        EXPECT_EQ(c.shards, 4u);
        EXPECT_EQ(c.injections, 24u);
    }

    // The plan agrees with the work-list the orchestrator executes.
    EXPECT_EQ(plan.totalShards(), decomposeStudy(spec).size());

    // ACE-only: no shards, but the golden runs remain.
    spec.aceOnly = true;
    const StudyPlan ace = planStudy(spec);
    EXPECT_EQ(ace.totalShards(), 0u);
    EXPECT_EQ(ace.goldenRuns, 2u);
}

TEST(JsonParser, ParsesTheShapesTheRepositoryEmits)
{
    const JsonValue v = parseJson(
        R"({"s":"a\"b","n":1.5,"u":18446744073709551615,)"
        R"("t":true,"f":false,"z":null,"a":[1,2],"o":{"k":"v"}})");
    EXPECT_EQ(v.find("s")->asString(), "a\"b");
    EXPECT_DOUBLE_EQ(v.find("n")->asDouble(), 1.5);
    EXPECT_EQ(v.find("u")->asU64(), 18446744073709551615ULL);
    EXPECT_TRUE(v.find("t")->asBool());
    EXPECT_FALSE(v.find("f")->asBool());
    EXPECT_TRUE(v.find("z")->isNull());
    ASSERT_EQ(v.find("a")->items().size(), 2u);
    EXPECT_EQ(v.find("a")->items()[1].asU64(), 2u);
    EXPECT_EQ(v.find("o")->find("k")->asString(), "v");
    EXPECT_EQ(v.find("missing"), nullptr);

    EXPECT_THROW(parseJson("{"), FatalError);
    EXPECT_THROW(parseJson("{} trailing"), FatalError);
    EXPECT_THROW(parseJson(R"({"a":1,"a":2})"), FatalError);
    EXPECT_THROW(parseJson(R"({"a":1.5})").find("a")->asU64(),
                 FatalError);

    // Nesting is bounded at 64 levels.
    EXPECT_NO_THROW(parseJson(std::string(64, '[') + std::string(64, ']')));
    EXPECT_THROW(parseJson(std::string(65, '[') + std::string(65, ']')),
                 FatalError);
}

TEST(StoreHeaderRecord, RoundTripsAndRejectsShardRecords)
{
    StoreHeader h;
    h.specHash = "00c0ffee00c0ffee";
    h.specJson = sampleSpec().toJsonString();
    std::ostringstream os;
    writeStoreHeader(os, h);

    StoreHeader back;
    ASSERT_TRUE(parseStoreHeader(os.str(), back));
    EXPECT_EQ(back.version, 1u);
    EXPECT_EQ(back.specHash, h.specHash);

    // A shard record is not a header; a header is not a shard record.
    EXPECT_FALSE(parseStoreHeader(
        R"({"workload":"scan","gpu":"GeForce GTX 480"})", back));
    ShardRecord record;
    EXPECT_FALSE(parseShardRecord(os.str(), record));
}

} // namespace
} // namespace gpr
