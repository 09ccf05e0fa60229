/** @file Tests for JSON/CSV export of analysis results. */

#include <gtest/gtest.h>

#include <sstream>

#include "core/export.hh"
#include "core/orchestrator.hh"

namespace gpr {
namespace {

TEST(JsonWriter, PrimitiveShapes)
{
    std::ostringstream os;
    JsonWriter j(os);
    j.beginObject();
    j.kv("s", "text");
    j.kv("d", 1.5);
    j.kv("u", std::uint64_t{42});
    j.kv("b", true);
    j.key("arr").beginArray();
    j.value(std::uint64_t{1});
    j.value(std::uint64_t{2});
    j.endArray();
    j.key("nested").beginObject();
    j.kv("x", 0.25);
    j.endObject();
    j.endObject();
    EXPECT_EQ(os.str(),
              R"({"s":"text","d":1.5,"u":42,"b":true,"arr":[1,2],)"
              R"("nested":{"x":0.25}})");
}

TEST(JsonWriter, EscapesStrings)
{
    std::ostringstream os;
    JsonWriter j(os);
    j.beginObject();
    j.kv("k", "a\"b\\c\nd");
    j.endObject();
    EXPECT_EQ(os.str(), "{\"k\":\"a\\\"b\\\\c\\nd\"}");
}

TEST(JsonWriter, NonFiniteBecomesNull)
{
    std::ostringstream os;
    JsonWriter j(os);
    j.beginArray();
    j.value(std::numeric_limits<double>::infinity());
    j.value(std::numeric_limits<double>::quiet_NaN());
    j.endArray();
    EXPECT_EQ(os.str(), "[null,null]");
}

TEST(JsonWriter, MisuseIsCaught)
{
    std::ostringstream os;
    JsonWriter j(os);
    j.beginObject();
    EXPECT_THROW(j.endArray(), PanicError);
    std::ostringstream os2;
    JsonWriter j2(os2);
    j2.beginArray();
    EXPECT_THROW(j2.key("k"), PanicError);
}

ReliabilityReport
sampleReport()
{
    ReliabilityReport r;
    r.workload = "vectoradd";
    r.gpuName = "GeForce GTX 480";
    r.cycles = 3110;
    r.execSeconds = 2.2e-6;
    r.ipc = 5.9;
    for (const StructureSpec& spec : structureRegistry()) {
        StructureReport sr;
        sr.structure = spec.id;
        r.structures.push_back(sr);
    }
    StructureReport& rf =
        r.structures[static_cast<std::size_t>(
            TargetStructure::VectorRegisterFile)];
    rf.applicable = true;
    rf.avfFi = 0.067;
    rf.avfAce = 0.070;
    rf.occupancy = 0.36;
    rf.injections = 150;
    r.epf.eit = 1.6e18;
    r.epf.fitRegisterFile = 1000.0;
    return r;
}

TEST(Export, ReportJsonHasAllSections)
{
    std::ostringstream os;
    writeReportJson(os, sampleReport());
    const std::string out = os.str();
    EXPECT_NE(out.find("\"workload\":\"vectoradd\""), std::string::npos);
    EXPECT_NE(out.find("\"register_file\":{\"applicable\":true"),
              std::string::npos);
    EXPECT_NE(out.find("\"local_memory\":{\"applicable\":false}"),
              std::string::npos);
    // Every registered structure appears exactly once.
    for (const StructureSpec& spec : structureRegistry()) {
        const std::string key =
            "\"" + std::string(spec.jsonKey) + "\":{";
        const auto first = out.find(key);
        EXPECT_NE(first, std::string::npos) << spec.jsonKey;
        EXPECT_EQ(out.find(key, first + 1), std::string::npos)
            << spec.jsonKey;
    }
    EXPECT_NE(out.find("\"epf\":{"), std::string::npos);
    // Balanced braces (cheap well-formedness check).
    EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
              std::count(out.begin(), out.end(), '}'));
}

TEST(Export, StudyJsonAndCsvCoverAllCells)
{
    StudySpec spec;
    spec.workloads = {"vectoradd"};
    spec.gpus = {GpuModel::QuadroFx5600, GpuModel::GeforceGtx480};
    spec.aceOnly = true;
    spec.verbose = false;
    const StudyResult study = runStudy(spec);

    std::ostringstream json;
    writeStudyJson(json, study);
    const std::string jtext = json.str();
    EXPECT_NE(jtext.find("\"cells\":["), std::string::npos);
    EXPECT_NE(jtext.find("Quadro FX 5600"), std::string::npos);
    EXPECT_NE(jtext.find("GeForce GTX 480"), std::string::npos);
    EXPECT_NE(jtext.find("\"claims\":{"), std::string::npos);
    EXPECT_EQ(std::count(jtext.begin(), jtext.end(), '{'),
              std::count(jtext.begin(), jtext.end(), '}'));

    std::ostringstream csv;
    writeStudyCsv(csv, study);
    const std::string ctext = csv.str();
    // Header + one row per cell.
    EXPECT_EQ(std::count(ctext.begin(), ctext.end(), '\n'), 3);
    EXPECT_NE(ctext.find("benchmark,gpu,cycles"), std::string::npos);
}

} // namespace
} // namespace gpr
