#include "core/study_spec.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/string_utils.hh"
#include "core/export.hh"
#include "sim/structure_registry.hh"
#include "workloads/workloads.hh"

namespace gpr {
namespace {

/** Shortest decimal string that parses back to exactly @p v. */
std::string
formatDouble(double v)
{
    for (int precision : {15, 16, 17}) {
        std::string s = strprintf("%.*g", precision, v);
        if (std::strtod(s.c_str(), nullptr) == v)
            return s;
    }
    return strprintf("%.17g", v);
}

std::uint64_t
doubleBits(double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "64-bit double expected");
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

void
mixString(StateHash& h, std::string_view s)
{
    h.mix(s.size());
    for (char c : s)
        h.mix(static_cast<unsigned char>(c));
}

/** @p v, the value of spec field @p field, as an unsigned; fatal when
 *  it does not fit, where a narrowing cast would wrap it silently. */
unsigned
asUnsigned(const JsonValue& v, std::string_view field)
{
    const std::uint64_t n = v.asU64();
    if (n > std::numeric_limits<unsigned>::max()) {
        fatal("spec field '", field, "' is ", n, ", above the largest ",
              "allowed value ", std::numeric_limits<unsigned>::max());
    }
    return static_cast<unsigned>(n);
}

/** Fatal unless every member key of @p obj appears in @p known. */
void
rejectUnknownKeys(const JsonValue& obj, std::string_view where,
                  std::initializer_list<std::string_view> known)
{
    for (const auto& [key, value] : obj.members()) {
        (void)value;
        if (std::find(known.begin(), known.end(), key) != known.end())
            continue;
        std::string list;
        for (std::string_view k : known)
            list += (list.empty() ? "" : ", ") + std::string(k);
        fatal("unknown key '", key, "' in spec ", where,
              " section (known keys: ", list, ")");
    }
}

} // namespace

// ------------------------------------------------------------- resolution

std::vector<std::string>
StudySpec::resolvedWorkloads() const
{
    if (!workloads.empty())
        return workloads;
    std::vector<std::string> all;
    for (std::string_view name : allWorkloadNames())
        all.emplace_back(name);
    return all;
}

std::vector<GpuModel>
StudySpec::resolvedGpus() const
{
    return gpus.empty() ? allGpuModels() : gpus;
}

std::vector<TargetStructure>
StudySpec::resolvedStructures() const
{
    if (!structures.empty())
        return structures;
    std::vector<TargetStructure> all;
    for (const StructureSpec& spec : structureRegistry())
        all.push_back(spec.id);
    return all;
}

// ------------------------------------------------------------- validation

void
validateWorkloadNames(const std::vector<std::string>& names)
{
    const auto& known = allWorkloadNames();
    for (const std::string& name : names) {
        if (std::find(known.begin(), known.end(), name) != known.end())
            continue;
        std::string list;
        for (std::string_view k : known)
            list += (list.empty() ? "" : ", ") + std::string(k);
        fatal("unknown workload '", name, "' (known benchmarks: ", list,
              ")");
    }
}

void
StudySpec::validate() const
{
    validateWorkloadNames(workloads);
    for (GpuModel m : gpus) {
        if (static_cast<std::size_t>(m) >= allGpuModels().size()) {
            fatal("spec names an unregistered GPU model id ",
                  static_cast<unsigned>(m));
        }
    }
    for (TargetStructure s : structures)
        structureSpec(s); // throws FatalError on an unregistered id
    if (plan.injections == 0 && !plan.adaptive() && !aceOnly) {
        fatal("spec has a zero-injection sample plan; set "
              "campaign.injections > 0, campaign.margin > 0 (adaptive "
              "stopping), or campaign.ace_only = true");
    }
    if (plan.confidence <= 0.0 || plan.confidence >= 1.0) {
        fatal("spec confidence ", formatDouble(plan.confidence),
              " is outside (0, 1)");
    }
    if (plan.margin < 0.0 || plan.margin >= 1.0) {
        fatal("spec margin ", formatDouble(plan.margin),
              " is outside [0, 1); 0 disables adaptive stopping");
    }
    if (!plan.adaptive() && plan.maxInjections > 0) {
        fatal("spec sets campaign.max_injections without a margin; the "
              "cap only applies to adaptive (margin > 0) campaigns");
    }
    if (resume && storePath.empty())
        fatal("spec requests resume without a store path");
    if (faultBehaviorPersistent(faultBehavior)) {
        for (TargetStructure s : resolvedStructures()) {
            if (structureSpec(s).persistenceHook == PersistenceHook::None) {
                fatal("spec requests ", faultBehaviorName(faultBehavior),
                      " faults but structure ", structureSpec(s).name,
                      " binds no persistence hook");
            }
        }
    }
}

// ------------------------------------------------------------------ hash

std::uint64_t
StudySpec::campaignHash() const
{
    // Resolve the empty-means-all defaults and canonicalise ordering so
    // the hash depends on the *set* of cells a spec describes, never on
    // listing order, duplicates, or spelled-out defaults.
    std::vector<std::string> w = resolvedWorkloads();
    std::sort(w.begin(), w.end());
    w.erase(std::unique(w.begin(), w.end()), w.end());
    std::vector<GpuModel> g = resolvedGpus();
    std::sort(g.begin(), g.end());
    g.erase(std::unique(g.begin(), g.end()), g.end());
    std::vector<TargetStructure> s = resolvedStructures();
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());

    StateHash h;
    h.mix(0x47505253504543ULL); // "GPRSPEC" domain tag
    h.mix(1);                   // hash-schema version
    h.mix(w.size());
    for (const std::string& name : w)
        mixString(h, name);
    h.mix(g.size());
    for (GpuModel m : g)
        h.mix(static_cast<std::uint64_t>(m));
    h.mix(s.size());
    for (TargetStructure id : s)
        h.mix(static_cast<std::uint64_t>(id));
    if (plan.adaptive()) {
        // Adaptive campaigns are identified by (margin, cap) — the fixed
        // injection count is unused and must not split their identity.
        // The marker keeps the adaptive space disjoint from every fixed
        // plan; fixed plans keep the pre-adaptive byte sequence, so
        // existing stores stay resumable.
        h.mix(0x414441505456ULL); // "ADAPTV"
        h.mix(doubleBits(plan.margin));
        h.mix(plan.resolvedMaxInjections());
    } else {
        h.mix(plan.injections);
    }
    h.mix(doubleBits(plan.confidence));
    h.mix(seed);
    h.mix(workloadSeed);
    h.mix(aceOnly ? 1 : 0);
    h.mix(doubleBits(fitParams.rawFitPerMbit));
    if (faultShape() != FaultShape{}) {
        // Same compatibility scheme as the adaptive marker above: the
        // default transient single-bit shape keeps the pre-redesign byte
        // sequence — every existing store hash is untouched — while any
        // non-default shape moves the spec into a disjoint, marked space.
        h.mix(0x4642454856ULL); // "FBEHV"
        h.mix(static_cast<std::uint64_t>(faultBehavior));
        h.mix(static_cast<std::uint64_t>(faultPattern));
    }
    return h.value();
}

std::string
StudySpec::campaignHashHex() const
{
    return strprintf("%016llx",
                     static_cast<unsigned long long>(campaignHash()));
}

// --------------------------------------------------------- serialization

void
StudySpec::writeJson(JsonWriter& j) const
{
    j.beginObject();
    j.kv("version", std::uint64_t{1});

    j.key("grid").beginObject();
    j.key("workloads").beginArray();
    for (const std::string& w : workloads)
        j.value(w);
    j.endArray();
    j.key("gpus").beginArray();
    for (GpuModel m : gpus)
        j.value(gpuShortName(m));
    j.endArray();
    j.key("structures").beginArray();
    for (TargetStructure s : structures)
        j.value(structureSpec(s).shortName);
    j.endArray();
    j.endObject();

    j.key("campaign").beginObject();
    j.kv("injections", static_cast<std::uint64_t>(plan.injections));
    j.key("confidence").raw(formatDouble(plan.confidence));
    j.key("margin").raw(formatDouble(plan.margin));
    j.kv("max_injections", static_cast<std::uint64_t>(plan.maxInjections));
    j.kv("seed", seed);
    j.kv("workload_seed", workloadSeed);
    j.kv("fault_behavior", faultBehaviorName(faultBehavior));
    j.kv("fault_pattern", faultPatternName(faultPattern));
    j.kv("ace_only", aceOnly);
    j.key("raw_fit_per_mbit").raw(formatDouble(fitParams.rawFitPerMbit));
    j.endObject();

    j.key("execution").beginObject();
    j.kv("jobs", std::uint64_t{jobs});
    j.kv("shards_per_campaign",
         static_cast<std::uint64_t>(shardsPerCampaign));
    j.kv("checkpoints", std::uint64_t{checkpoints});
    j.kv("store", storePath);
    j.kv("resume", resume);
    j.kv("verbose", verbose);
    j.endObject();

    j.endObject();
}

void
StudySpec::toJson(std::ostream& os) const
{
    JsonWriter j(os);
    writeJson(j);
}

std::string
StudySpec::toJsonString() const
{
    std::ostringstream os;
    toJson(os);
    return os.str();
}

StudySpec
StudySpec::fromJson(std::string_view json)
{
    const JsonValue doc = parseJson(json);
    if (doc.kind() != JsonValue::Kind::Object)
        fatal("a study spec must be a JSON object");
    rejectUnknownKeys(doc, "top-level",
                      {"version", "grid", "campaign", "execution"});

    StudySpec spec;
    if (const JsonValue* version = doc.find("version")) {
        if (version->asU64() != 1) {
            fatal("unsupported spec version ", version->asU64(),
                  " (this build reads version 1)");
        }
    }

    if (const JsonValue* grid = doc.find("grid")) {
        rejectUnknownKeys(*grid, "grid",
                          {"workloads", "gpus", "structures"});
        if (const JsonValue* w = grid->find("workloads")) {
            for (const JsonValue& name : w->items())
                spec.workloads.push_back(name.asString());
            validateWorkloadNames(spec.workloads);
        }
        if (const JsonValue* g = grid->find("gpus")) {
            for (const JsonValue& name : g->items())
                spec.gpus.push_back(gpuModelFromName(name.asString()));
        }
        if (const JsonValue* s = grid->find("structures")) {
            for (const JsonValue& name : s->items()) {
                spec.structures.push_back(
                    targetStructureFromName(name.asString()));
            }
        }
    }

    if (const JsonValue* campaign = doc.find("campaign")) {
        rejectUnknownKeys(*campaign, "campaign",
                          {"injections", "confidence", "margin",
                           "max_injections", "seed", "workload_seed",
                           "fault_behavior", "fault_pattern",
                           "ace_only", "raw_fit_per_mbit"});
        if (const JsonValue* v = campaign->find("injections"))
            spec.plan.injections = static_cast<std::size_t>(v->asU64());
        if (const JsonValue* v = campaign->find("confidence"))
            spec.plan.confidence = v->asDouble();
        if (const JsonValue* v = campaign->find("margin"))
            spec.plan.margin = v->asDouble();
        if (const JsonValue* v = campaign->find("max_injections"))
            spec.plan.maxInjections =
                static_cast<std::size_t>(v->asU64());
        if (const JsonValue* v = campaign->find("seed"))
            spec.seed = v->asU64();
        if (const JsonValue* v = campaign->find("workload_seed"))
            spec.workloadSeed = v->asU64();
        if (const JsonValue* v = campaign->find("fault_behavior"))
            spec.faultBehavior = faultBehaviorFromName(v->asString());
        if (const JsonValue* v = campaign->find("fault_pattern"))
            spec.faultPattern = faultPatternFromName(v->asString());
        if (const JsonValue* v = campaign->find("ace_only"))
            spec.aceOnly = v->asBool();
        if (const JsonValue* v = campaign->find("raw_fit_per_mbit"))
            spec.fitParams.rawFitPerMbit = v->asDouble();
    }

    if (const JsonValue* execution = doc.find("execution")) {
        rejectUnknownKeys(*execution, "execution",
                          {"jobs", "shards_per_campaign", "checkpoints",
                           "store", "resume", "verbose"});
        if (const JsonValue* v = execution->find("jobs"))
            spec.jobs = asUnsigned(*v, "execution.jobs");
        if (const JsonValue* v = execution->find("shards_per_campaign"))
            spec.shardsPerCampaign =
                static_cast<std::size_t>(v->asU64());
        if (const JsonValue* v = execution->find("checkpoints"))
            spec.checkpoints = asUnsigned(*v, "execution.checkpoints");
        if (const JsonValue* v = execution->find("store"))
            spec.storePath = v->asString();
        if (const JsonValue* v = execution->find("resume"))
            spec.resume = v->asBool();
        if (const JsonValue* v = execution->find("verbose"))
            spec.verbose = v->asBool();
    }

    spec.validate();
    return spec;
}

StudySpec
StudySpec::fromJsonFile(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open spec file '", path, "'");
    std::ostringstream text;
    text << in.rdbuf();
    try {
        return fromJson(text.str());
    } catch (const FatalError& e) {
        fatal("spec file '", path, "': ", e.what());
    }
}

bool
StudySpec::operator==(const StudySpec& o) const
{
    return workloads == o.workloads && gpus == o.gpus &&
           structures == o.structures &&
           plan.injections == o.plan.injections &&
           plan.confidence == o.plan.confidence &&
           plan.margin == o.plan.margin &&
           plan.maxInjections == o.plan.maxInjections && seed == o.seed &&
           workloadSeed == o.workloadSeed &&
           faultBehavior == o.faultBehavior &&
           faultPattern == o.faultPattern && aceOnly == o.aceOnly &&
           fitParams.rawFitPerMbit == o.fitParams.rawFitPerMbit &&
           jobs == o.jobs && shardsPerCampaign == o.shardsPerCampaign &&
           checkpoints == o.checkpoints && storePath == o.storePath &&
           resume == o.resume && verbose == o.verbose;
}

// ----------------------------------------------------------------- preset

StudySpec
paperStudySpec()
{
    // The defaults *are* the paper's experiment: every workload, every
    // GPU, every applicable structure, 2,000 injections at 99 %.
    return StudySpec{};
}

// ------------------------------------------------- name-list CSV parsing

std::vector<std::string>
parseWorkloadList(std::string_view csv)
{
    std::vector<std::string> names;
    for (const std::string& piece : split(csv, ','))
        if (!piece.empty())
            names.push_back(piece);
    validateWorkloadNames(names);
    return names;
}

std::vector<GpuModel>
parseGpuList(std::string_view csv)
{
    std::vector<GpuModel> models;
    for (const std::string& piece : split(csv, ','))
        if (!piece.empty())
            models.push_back(gpuModelFromName(piece));
    return models;
}

std::vector<TargetStructure>
parseStructureList(std::string_view csv)
{
    std::vector<TargetStructure> ids;
    for (const std::string& piece : split(csv, ','))
        if (!piece.empty())
            ids.push_back(targetStructureFromName(piece));
    return ids;
}

} // namespace gpr
