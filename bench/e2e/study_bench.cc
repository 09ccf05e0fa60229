/**
 * @file
 * End-to-end study benchmark: one StudySpec workload through the public
 * runStudy(), timed on the host, with its outcomes checked.
 *
 *     study_bench --spec=FILE --seed=S --seconds=T --work-dir=DIR
 *                 [--smoke] [--trace=FILE]
 *
 * Default mode repeats (set-up, study) pairs until the next pair would
 * end past T seconds (at least three pairs).  Set-up is runStudy() of the
 * same spec with aceOnly=true — the golden+ACE barrier — so work moved
 * into it shows.  It is repeated within a pair until the pair's set-up
 * has lasted kSetupShare of T, so a short barrier still gives a steady
 * median; an ACE-only spec is its own set-up, and its study time is the
 * set-up sample.  Every study is checked: each campaign ran its planned
 * injections, its integer counts reproduce the reported rates exactly,
 * the JSONL store (when the spec names one) agrees with the report, and
 * the outcome digest is identical across repetitions.
 *
 * --trace runs the per-layer ledger instead: the spec once at its own
 * `jobs` with a store (the orchestrator's view: StudyProgress gives the
 * golden-run, pack, phase and hit counters, the store gives per-shard
 * times), once untraced at jobs=1, and once re-executed at jobs=1
 * through each layer's public functions in decomposeStudy() order, with
 * one span per call.  The re-execution is a copy of the orchestrator's
 * shard loop, kept only for span timing; it must follow runStudy() when
 * the orchestrator changes.  The spans go to FILE as Chrome trace-event
 * JSON; run.py derives per-layer time from them.  The traced run is then
 * cross-checked: its per-shard counts must equal the store records, and
 * a seed-derived sample of its injections (>= 1 %, >= 1 per campaign)
 * is re-run on a legacy injector without a pack.
 *
 * --seed sets the campaign seed and derives the workload-input seed;
 * --smoke shrinks the grid to its first cell and 4 injections per
 * structure.  One JSON document goes to stdout.  Exit status: 0 ok, 1 a
 * check failed or the study threw, 2 bad arguments.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/string_utils.hh"
#include "core/export.hh"
#include "core/orchestrator.hh"
#include "core/study_spec.hh"
#include "reliability/ace.hh"
#include "reliability/campaign.hh"
#include "reliability/fault_injector.hh"
#include "sim/structure_registry.hh"
#include "workloads/workloads.hh"

namespace {

using namespace gpr;
using Clock = std::chrono::steady_clock;

/** Stream ids under --seed: the workload inputs and the legacy sample. */
constexpr std::uint64_t kWorkloadSeedStream = 1;
constexpr std::uint64_t kVerifyStream = 2;

/** Set-up time per pair in timing mode, as a share of --seconds.  At
 *  25 s a 0.1 s barrier is repeated for about a second: ten samples per
 *  pair instead of one. */
constexpr double kSetupShare = 0.04;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args
{
    std::string spec;
    std::uint64_t seed = 1;
    double seconds = 0.0;
    std::string workDir = ".";
    bool smoke = false;
    std::string trace; ///< empty = timing mode
};

/** Apply --seed, --smoke and --work-dir to a freshly loaded spec. */
void
configure(StudySpec& spec, const Args& args)
{
    spec.seed = args.seed;
    spec.workloadSeed = deriveSeed(args.seed, kWorkloadSeedStream);
    if (args.smoke) {
        spec.workloads = {spec.resolvedWorkloads().front()};
        spec.gpus = {spec.resolvedGpus().front()};
        if (!spec.aceOnly)
            spec.plan.injections = 4;
    }
    if (!spec.storePath.empty()) {
        const std::size_t slash = spec.storePath.find_last_of('/');
        spec.storePath = args.workDir + "/" +
                         (slash == std::string::npos
                              ? spec.storePath
                              : spec.storePath.substr(slash + 1));
    }
}

std::size_t
peakRssKib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<std::size_t>(usage.ru_maxrss);
}

std::vector<ShardRecord>
readStore(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot read shard store '", path, "'");
    return readShardStore(in);
}

// ------------------------------------------------------------ outcomes --

using CampaignId = std::tuple<std::string, GpuModel, TargetStructure>;

struct Counts
{
    std::uint64_t injections = 0;
    std::uint64_t masked = 0;
    std::uint64_t sdc = 0;
    std::uint64_t due = 0;
};

/** One (cell, applicable structure) entry of the outcome digest. */
struct OutcomeRow
{
    CampaignId id;
    Cycle goldenCycles = 0;
    double avfAce = 0.0; ///< ACE unit-cycles over units x cycles
    Counts counts;
};

/** FNV-1a over a canonical rendering of @p rows: equal digests mean
 *  bit-identical counts, golden cycles and ACE results. */
std::string
outcomeDigest(const std::vector<OutcomeRow>& rows)
{
    std::ostringstream text;
    for (const OutcomeRow& r : rows) {
        const auto& [workload, gpu, structure] = r.id;
        text << workload << '|' << gpuShortName(gpu) << '|'
             << structureSpec(structure).shortName << '|' << r.goldenCycles
             << '|' << strprintf("%a", r.avfAce) << '|'
             << r.counts.injections << '|' << r.counts.masked << '|'
             << r.counts.sdc << '|' << r.counts.due << '\n';
    }
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : text.str()) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return strprintf("%016llx", static_cast<unsigned long long>(h));
}

/** Recover the integer count behind @p rate; false unless it reproduces
 *  the rate bit-for-bit. */
bool
countFromRate(double rate, std::uint64_t injections, std::uint64_t& out)
{
    out = static_cast<std::uint64_t>(
        std::llround(rate * static_cast<double>(injections)));
    const double back = injections ? static_cast<double>(out) /
                                         static_cast<double>(injections)
                                   : 0.0;
    return back == rate;
}

/**
 * The outcome rows of @p result, checked against @p plan: every campaign
 * ran its planned injections, counts reproduce the reported rates, and
 * (when @p store is given) the store's shard records sum to the same
 * counts.  Failures are appended to @p errors.
 */
std::vector<OutcomeRow>
checkStudy(const StudyPlan& plan, const StudyResult& result,
           const std::vector<ShardRecord>* store,
           std::vector<std::string>& errors)
{
    std::map<CampaignId, std::uint64_t> planned;
    for (const StudyPlanCampaign& c : plan.campaigns)
        planned[{c.workload, c.gpu, c.structure}] = c.injections;

    std::map<CampaignId, Counts> stored;
    if (store) {
        for (const ShardRecord& r : *store) {
            Counts& c =
                stored[{r.key.workload, r.key.gpu, r.key.structure}];
            c.injections += r.key.injectionEnd - r.key.injectionBegin;
            c.masked += r.counts.masked;
            c.sdc += r.counts.sdc;
            c.due += r.counts.due;
        }
    }

    std::vector<OutcomeRow> rows;
    std::set<std::pair<std::string, GpuModel>> seen;
    for (const ReliabilityReport& report : result.reports) {
        if (!seen.insert({report.workload, report.gpu}).second)
            continue;
        for (const StructureReport& sr : report.structures) {
            if (!sr.applicable)
                continue;
            OutcomeRow row;
            row.id = {report.workload, report.gpu, sr.structure};
            row.goldenCycles = report.cycles;
            row.avfAce = sr.avfAce;
            Counts& c = row.counts;
            c.injections = sr.injections;
            const std::string name =
                report.workload + "/" +
                std::string(gpuShortName(report.gpu)) + "/" +
                std::string(structureSpec(sr.structure).shortName);
            const auto want = planned.find(row.id);
            const std::uint64_t expected =
                want == planned.end() ? 0 : want->second;
            if (c.injections != expected) {
                errors.push_back(strprintf(
                    "%s: %llu injections reported, %llu planned",
                    name.c_str(),
                    static_cast<unsigned long long>(c.injections),
                    static_cast<unsigned long long>(expected)));
            }
            if (!countFromRate(sr.sdcRate, c.injections, c.sdc) ||
                !countFromRate(sr.dueRate, c.injections, c.due) ||
                c.sdc + c.due > c.injections) {
                errors.push_back(name + ": rates are not whole counts");
            } else {
                c.masked = c.injections - c.sdc - c.due;
            }
            if (store && expected > 0) {
                const Counts& s = stored[row.id];
                if (s.masked + s.sdc + s.due != expected ||
                    s.injections != expected || s.sdc != c.sdc ||
                    s.due != c.due) {
                    errors.push_back(name +
                                     ": store records disagree with the "
                                     "report");
                }
            }
            rows.push_back(std::move(row));
        }
    }
    return rows;
}

void
writeStrings(JsonWriter& j, const char* key,
             const std::vector<std::string>& items)
{
    j.key(key).beginArray();
    for (const std::string& s : items)
        j.value(s);
    j.endArray();
}

void
writeDoubles(JsonWriter& j, const char* key, const std::vector<double>& v)
{
    j.key(key).beginArray();
    for (double x : v)
        j.value(x);
    j.endArray();
}

// ---------------------------------------------------------- timing mode --

int
runTiming(const Args& args)
{
    StudySpec spec = StudySpec::fromJsonFile(args.spec);
    configure(spec, args);
    const StudyPlan plan = planStudy(spec);
    StudySpec setup = spec;
    setup.aceOnly = true;
    setup.storePath.clear();

    std::vector<double> setup_s, study_s;
    std::vector<std::string> errors;
    std::string digest;
    std::uint64_t injections = 0;
    unsigned reps = 0, failed = 0;
    const auto t0 = Clock::now();
    // At least three pairs, so the median never averages the cold first
    // pair (fresh heap, first page faults) with a warm one; then stop
    // before the pair that would end past the budget, judged by the mean
    // pair so far.
    while (reps < 3 ||
           secondsSince(t0) * (reps + 1) / reps <= args.seconds) {
        ++reps;
        if (!spec.aceOnly) {
            const auto b0 = Clock::now();
            do {
                const auto s0 = Clock::now();
                runStudy(setup);
                setup_s.push_back(secondsSince(s0));
            } while (secondsSince(b0) < kSetupShare * args.seconds);
        }

        const auto s1 = Clock::now();
        StudyProgress progress;
        const StudyResult result = runStudy(spec, &progress);
        study_s.push_back(secondsSince(s1));
        if (spec.aceOnly)
            setup_s.push_back(study_s.back());
        injections = progress.injectionsExecuted;

        std::vector<std::string> rep_errors;
        std::vector<ShardRecord> records;
        if (!spec.storePath.empty())
            records = readStore(spec.storePath);
        const std::string d = outcomeDigest(checkStudy(
            plan, result, spec.storePath.empty() ? nullptr : &records,
            rep_errors));
        if (digest.empty())
            digest = d;
        else if (d != digest)
            rep_errors.push_back("outcome digest changed between "
                                 "repetitions: " +
                                 digest + " then " + d);
        failed += rep_errors.empty() ? 0 : 1;
        errors.insert(errors.end(), rep_errors.begin(), rep_errors.end());
    }

    JsonWriter j(std::cout);
    j.beginObject();
    j.kv("digest", digest);
    j.kv("studies_attempted", std::uint64_t{reps});
    j.kv("studies_failed", std::uint64_t{failed});
    writeStrings(j, "errors", errors);
    writeDoubles(j, "setup_s", setup_s);
    writeDoubles(j, "study_s", study_s);
    j.kv("injections", injections);
    j.kv("peak_rss_kib", static_cast<std::uint64_t>(peakRssKib()));
    j.endObject();
    std::cout << '\n';
    return errors.empty() ? 0 : 1;
}

// ----------------------------------------------------------- trace mode --

/** In-memory span recorder, written out once at the end.  Names and
 *  layers are string literals and structures are registry names, so
 *  recording a span allocates nothing but its vector slot. */
class Tracer
{
  public:
    struct Span
    {
        const char* name = "";
        const char* layer = "";
        double startUs = 0.0;
        double endUs = 0.0;
        std::size_t parent = kNone; ///< index into spans, or kNone
        std::size_t cell = kNone;
        std::string_view structure;
    };
    static constexpr std::size_t kNone = ~std::size_t{0};

    std::size_t
    begin(const char* name, const char* layer, std::size_t cell,
          std::string_view structure)
    {
        Span s;
        s.name = name;
        s.layer = layer;
        s.startUs = nowUs();
        s.parent = open_.empty() ? kNone : open_.back();
        s.cell = cell;
        s.structure = structure;
        spans_.push_back(s);
        open_.push_back(spans_.size() - 1);
        return open_.back();
    }

    void
    end()
    {
        spans_[open_.back()].endUs = nowUs();
        open_.pop_back();
    }

    double
    seconds(std::size_t id) const
    {
        return (spans_[id].endUs - spans_[id].startUs) * 1e-6;
    }

    /** Chrome trace-event JSON: one complete ("X") event per span,
     *  one thread lane per cell. */
    void
    write(std::ostream& os) const
    {
        JsonWriter j(os);
        j.beginObject();
        j.key("traceEvents").beginArray();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            j.beginObject();
            j.kv("name", s.name);
            j.kv("cat", s.layer);
            j.kv("ph", "X");
            j.kv("ts", s.startUs);
            j.kv("dur", s.endUs - s.startUs);
            j.kv("pid", std::uint64_t{1});
            j.kv("tid", static_cast<std::uint64_t>(
                            s.cell == kNone ? 0 : s.cell + 1));
            j.key("args").beginObject();
            j.kv("id", static_cast<std::uint64_t>(i));
            if (s.parent != kNone)
                j.kv("parent", static_cast<std::uint64_t>(s.parent));
            if (s.cell != kNone)
                j.kv("cell", static_cast<std::uint64_t>(s.cell));
            if (!s.structure.empty())
                j.kv("structure", s.structure);
            j.endObject();
            j.endObject();
        }
        j.endArray();
        j.kv("displayTimeUnit", "ms");
        j.endObject();
    }

  private:
    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         t0_)
            .count();
    }

    Clock::time_point t0_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
};

/** RAII span: open for the lifetime of the object. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer& tracer, const char* name, const char* layer,
               std::size_t cell = Tracer::kNone,
               std::string_view structure = {})
        : tracer_(tracer), id_(tracer.begin(name, layer, cell, structure))
    {
    }
    ~ScopedSpan() { tracer_.end(); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    std::size_t id() const { return id_; }

  private:
    Tracer& tracer_;
    std::size_t id_;
};

struct TracedCell
{
    std::string workload;
    GpuModel gpu = GpuModel::GeforceGtx480;
    const GpuConfig* config = nullptr;
    bool usesLds = false;
    WorkloadInstance instance;
    AceResult ace;
};

/** A traced injection kept for the legacy re-run. */
struct Sample
{
    std::size_t cell = 0;
    InjectionResult result;
};

/** Seed-derived legacy sample of each campaign: ceil(1 %), at least 1. */
std::map<CampaignId, std::set<std::uint64_t>>
legacySample(const StudySpec& spec, const StudyPlan& plan)
{
    std::map<CampaignId, std::set<std::uint64_t>> picks;
    const std::uint64_t root = deriveSeed(spec.seed, kVerifyStream);
    for (std::size_t i = 0; i < plan.campaigns.size(); ++i) {
        const StudyPlanCampaign& c = plan.campaigns[i];
        auto& set = picks[{c.workload, c.gpu, c.structure}];
        const std::uint64_t want =
            std::max<std::uint64_t>(1, (c.injections + 99) / 100);
        Rng rng(deriveSeed(root, i));
        while (set.size() < std::min(want, c.injections))
            set.insert(rng.below(c.injections));
    }
    return picks;
}

int
runTrace(const Args& args)
{
    std::vector<std::string> errors;
    unsigned failed = 0;
    auto note = [&](std::vector<std::string> found) {
        failed += found.empty() ? 0 : 1;
        errors.insert(errors.end(), found.begin(), found.end());
    };

    // 1. The orchestrator's view at the spec's own jobs, with a store.
    StudySpec ref = StudySpec::fromJsonFile(args.spec);
    configure(ref, args);
    ref.storePath = args.workDir + "/ref.jsonl";
    const StudyPlan plan = planStudy(ref);
    StudyProgress progress;
    const auto r0 = Clock::now();
    const StudyResult ref_result = runStudy(ref, &progress);
    const double ref_s = secondsSince(r0);
    const std::vector<ShardRecord> ref_records = readStore(ref.storePath);
    std::string digest;
    {
        std::vector<std::string> found;
        digest =
            outcomeDigest(checkStudy(plan, ref_result, &ref_records, found));
        note(found);
    }
    double ace_wall_s = 0.0;
    for (const ReliabilityReport& r : ref_result.reports)
        ace_wall_s += r.aceWallSeconds;
    std::vector<double> shard_s;
    for (const ShardRecord& r : ref_records)
        shard_s.push_back(r.counts.busySeconds);
    std::ifstream ref_store(ref.storePath, std::ios::binary | std::ios::ate);
    const auto store_bytes = static_cast<std::uint64_t>(ref_store.tellg());

    // 2. Untraced at jobs=1: the base of trace.overhead_frac.
    StudySpec serial = StudySpec::fromJsonFile(args.spec);
    configure(serial, args);
    serial.jobs = 1;
    const auto u0 = Clock::now();
    const StudyResult serial_result = runStudy(serial);
    const double serial_s = secondsSince(u0);
    {
        std::vector<std::string> found;
        if (outcomeDigest(checkStudy(plan, serial_result, nullptr, found)) !=
            digest)
            found.push_back("jobs=1 digest differs from the jobs=" +
                            std::to_string(ref.jobs) + " digest");
        note(found);
    }

    // 3. Traced re-execution at jobs=1, in decomposeStudy() order.
    Tracer tracer;
    std::vector<TracedCell> cells;
    std::map<ShardKey, ShardCounts> traced_shards;
    std::map<CampaignId, Counts> traced_campaigns;
    std::map<TargetStructure, std::uint64_t> shortcuts;
    std::vector<Sample> samples;
    std::string traced_store;
    std::size_t study_span = 0;
    {
        ScopedSpan root(tracer, "study", "bench");
        study_span = root.id();
        StudySpec spec;
        StudyPlan traced_plan;
        std::vector<ShardKey> shards;
        {
            ScopedSpan s(tracer, "StudySpec::fromJsonFile", "spec");
            spec = StudySpec::fromJsonFile(args.spec);
        }
        configure(spec, args);
        spec.jobs = 1;
        {
            ScopedSpan s(tracer, "StudySpec::validate", "spec");
            spec.validate();
        }
        {
            ScopedSpan s(tracer, "planStudy", "spec");
            traced_plan = planStudy(spec);
        }
        {
            ScopedSpan s(tracer, "decomposeStudy", "orch");
            shards = decomposeStudy(spec);
        }
        const auto sample = legacySample(spec, traced_plan);

        std::ofstream store;
        if (!spec.storePath.empty()) {
            ScopedSpan s(tracer, "writeStoreHeader", "store");
            traced_store = spec.storePath;
            store.open(traced_store, std::ios::out | std::ios::trunc);
            if (!store)
                fatal("cannot open shard store '", traced_store, "'");
            StoreHeader header;
            header.specHash = spec.campaignHashHex();
            header.specJson = spec.toJsonString();
            writeStoreHeader(store, header);
            store << '\n';
            store.flush();
        }

        std::size_t next_shard = 0;
        std::set<std::pair<std::string, GpuModel>> seen;
        // Injectors hold references into their cell: no reallocation.
        cells.reserve(spec.resolvedWorkloads().size() *
                      spec.resolvedGpus().size());
        for (const std::string& w : spec.resolvedWorkloads()) {
            for (GpuModel g : spec.resolvedGpus()) {
                if (!seen.insert({w, g}).second)
                    continue;
                const std::size_t id = cells.size();
                cells.emplace_back();
                TracedCell& cell = cells.back();
                cell.workload = w;
                cell.gpu = g;
                cell.config = &gpuConfig(g);
                {
                    ScopedSpan s(tracer, "Workload::build", "workloads", id);
                    const auto workload = makeWorkload(w);
                    cell.usesLds = workload->usesLocalMemory();
                    WorkloadParams params;
                    params.seed = spec.workloadSeed;
                    cell.instance =
                        workload->build(cell.config->dialect, params);
                }
                {
                    ScopedSpan s(tracer, "runAceAnalysis", "ace", id);
                    cell.ace = runAceAnalysis(*cell.config, cell.instance);
                }
                const Cycle golden = cell.ace.goldenStats.cycles;

                std::size_t end_shard = next_shard;
                while (end_shard < shards.size() &&
                       shards[end_shard].workload == w &&
                       shards[end_shard].gpu == g)
                    ++end_shard;
                std::shared_ptr<const CheckpointPack> pack;
                if (end_shard > next_shard && spec.checkpoints > 0) {
                    ScopedSpan s(tracer, "FaultInjector::buildCheckpointPack",
                                 "pack", id);
                    FaultInjector recorder(*cell.config, cell.instance);
                    recorder.adoptGoldenCycles(golden);
                    pack = recorder.buildCheckpointPack(spec.checkpoints);
                }

                for (; next_shard < end_shard; ++next_shard) {
                    const ShardKey& key = shards[next_shard];
                    const std::string_view sname =
                        structureSpec(key.structure).shortName;
                    const CampaignId cid{w, g, key.structure};
                    const std::set<std::uint64_t>& picks = sample.at(cid);
                    ShardCounts counts;
                    const auto k0 = Clock::now();
                    {
                        ScopedSpan shard_span(tracer, "shard", "orch", id,
                                              sname);
                        FaultInjector injector(*cell.config, cell.instance);
                        injector.adoptGoldenCycles(golden);
                        if (pack)
                            injector.adoptCheckpointPack(pack);
                        const FaultShape shape{key.behavior, key.pattern};
                        std::uint64_t& hits = shortcuts[key.structure];
                        auto run = [&](std::uint64_t index, auto&& inject) {
                            InjectionResult r;
                            {
                                ScopedSpan s(tracer, "FaultInjector::inject",
                                             "inject", id, sname);
                                r = inject();
                            }
                            hits += r.converged() ? 1 : 0;
                            switch (r.outcome) {
                              case FaultOutcome::Masked:
                                ++counts.masked;
                                break;
                              case FaultOutcome::Sdc:
                                ++counts.sdc;
                                break;
                              case FaultOutcome::Due:
                                ++counts.due;
                                break;
                            }
                            if (picks.count(index))
                                samples.push_back({id, r});
                        };
                        if (pack && faultBehaviorPersistent(key.behavior)) {
                            // The orchestrator's shared-restore batching:
                            // pre-draw, then run grouped by checkpoint.
                            struct Drawn
                            {
                                std::size_t checkpoint;
                                std::uint64_t index;
                                FaultSpec fault;
                            };
                            std::vector<Drawn> batch;
                            for (std::uint64_t i = key.injectionBegin;
                                 i < key.injectionEnd; ++i) {
                                Rng rng(deriveSeed(key.campaignSeed, i));
                                const FaultSpec fault = injector.sampleRandom(
                                    key.structure, rng, shape);
                                batch.push_back(
                                    {injector.checkpointIndexFor(fault.cycle),
                                     i, fault});
                            }
                            std::stable_sort(
                                batch.begin(), batch.end(),
                                [](const Drawn& a, const Drawn& b) {
                                    return a.checkpoint < b.checkpoint;
                                });
                            for (const Drawn& d : batch) {
                                run(d.index,
                                    [&]() { return injector.inject(d.fault); });
                            }
                        } else {
                            for (std::uint64_t i = key.injectionBegin;
                                 i < key.injectionEnd; ++i) {
                                run(i, [&]() {
                                    return runIndexedInjection(
                                        injector, key.structure,
                                        key.campaignSeed, i, shape);
                                });
                            }
                        }
                    }
                    counts.busySeconds = secondsSince(k0);
                    if (store.is_open()) {
                        ScopedSpan s(tracer, "writeShardRecord", "store", id,
                                     sname);
                        writeShardRecord(store, ShardRecord{key, counts});
                        store << '\n';
                        store.flush();
                    }
                    traced_shards[key] = counts;
                    Counts& c = traced_campaigns[cid];
                    c.injections += key.injectionEnd - key.injectionBegin;
                    c.masked += counts.masked;
                    c.sdc += counts.sdc;
                    c.due += counts.due;
                }
            }
        }
    }
    if (!traced_store.empty()) {
        ScopedSpan s(tracer, "readShardStore", "store");
        if (readStore(traced_store).size() != traced_shards.size())
            note({"traced store lost shard records"});
    }
    {
        ScopedSpan s(tracer, "writeStudyJson", "export");
        std::ofstream out(args.workDir + "/study.json");
        writeStudyJson(out, serial_result);
    }
    {
        ScopedSpan s(tracer, "writeStudyCsv", "export");
        std::ofstream out(args.workDir + "/study.csv");
        writeStudyCsv(out, serial_result);
    }

    // 4. Cross-checks of the traced run.
    std::vector<std::string> found;
    std::vector<OutcomeRow> rows;
    for (const TracedCell& cell : cells) {
        for (const StructureSpec& sspec : structureRegistry()) {
            if (!structureApplies(*cell.config, sspec.id, cell.usesLds))
                continue;
            OutcomeRow row;
            row.id = {cell.workload, cell.gpu, sspec.id};
            row.goldenCycles = cell.ace.goldenStats.cycles;
            row.avfAce = cell.ace.forStructure(sspec.id).avf();
            if (const auto it = traced_campaigns.find(row.id);
                it != traced_campaigns.end())
                row.counts = it->second;
            rows.push_back(row);
        }
    }
    for (const StudyPlanCampaign& c : plan.campaigns) {
        const Counts& t = traced_campaigns[{c.workload, c.gpu, c.structure}];
        if (t.masked + t.sdc + t.due != c.injections) {
            found.push_back(strprintf(
                "traced %s/%s/%s: masked+sdc+due = %llu, planned %llu",
                c.workload.c_str(), std::string(gpuShortName(c.gpu)).c_str(),
                std::string(structureSpec(c.structure).shortName).c_str(),
                static_cast<unsigned long long>(t.masked + t.sdc + t.due),
                static_cast<unsigned long long>(c.injections)));
        }
    }
    if (outcomeDigest(rows) != digest)
        found.push_back("traced digest differs from the runStudy digest");

    std::uint64_t shard_mismatch = 0;
    std::map<ShardKey, ShardCounts> ref_shards;
    for (const ShardRecord& r : ref_records)
        ref_shards[r.key] = r.counts;
    for (const auto& [key, counts] : traced_shards) {
        const auto it = ref_shards.find(key);
        if (it == ref_shards.end() || it->second.masked != counts.masked ||
            it->second.sdc != counts.sdc || it->second.due != counts.due)
            ++shard_mismatch;
    }
    shard_mismatch += ref_shards.size() > traced_shards.size()
                          ? ref_shards.size() - traced_shards.size()
                          : 0;
    if (shard_mismatch)
        found.push_back(std::to_string(shard_mismatch) +
                        " traced shards disagree with the store records");

    std::uint64_t legacy_mismatch = 0;
    {
        std::map<std::size_t, std::unique_ptr<FaultInjector>> legacy;
        for (const Sample& s : samples) {
            const TracedCell& cell = cells[s.cell];
            auto& injector = legacy[s.cell];
            if (!injector) {
                injector = std::make_unique<FaultInjector>(*cell.config,
                                                           cell.instance);
                injector->adoptGoldenCycles(cell.ace.goldenStats.cycles);
            }
            const InjectionResult r = injector->inject(s.result.fault);
            if (r.outcome != s.result.outcome || r.trap != s.result.trap)
                ++legacy_mismatch;
        }
    }
    if (legacy_mismatch)
        found.push_back(std::to_string(legacy_mismatch) +
                        " sampled injections disagree with the legacy "
                        "engine");
    note(found);

    {
        std::ofstream out(args.trace);
        tracer.write(out);
        if (!out)
            fatal("cannot write trace file '", args.trace, "'");
    }

    std::uint64_t golden_cycles = 0, golden_insts = 0;
    for (const TracedCell& cell : cells) {
        golden_cycles += cell.ace.goldenStats.cycles;
        golden_insts += cell.ace.goldenStats.warpInstructions;
    }

    JsonWriter j(std::cout);
    j.beginObject();
    j.kv("digest", digest);
    j.kv("studies_attempted", std::uint64_t{3});
    j.kv("studies_failed", std::uint64_t{failed});
    writeStrings(j, "errors", errors);
    j.kv("jobs", std::uint64_t{ref.jobs});
    j.kv("ref_study_s", ref_s);
    j.kv("ref_injections", progress.injectionsExecuted);
    j.kv("ace_wall_s", ace_wall_s);
    j.kv("worker_s", progress.shardBusySeconds);
    writeDoubles(j, "shard_s", shard_s);
    j.kv("untraced_jobs1_s", serial_s);
    j.kv("traced_study_s", tracer.seconds(study_span));
    const InjectionPhaseStats& phases = progress.phaseStats;
    j.key("counters").beginObject();
    j.kv("ace.golden_runs", static_cast<std::uint64_t>(progress.goldenRuns));
    j.kv("sim.golden_cycles", golden_cycles);
    j.kv("sim.golden_warp_insts", golden_insts);
    j.kv("pack.count", static_cast<std::uint64_t>(progress.checkpointPacks));
    j.kv("pack.peak_kib",
         static_cast<std::uint64_t>(progress.peakPackBytes / 1024));
    j.kv("pack.full_kib",
         static_cast<std::uint64_t>(progress.peakPackFullBytes / 1024));
    j.kv("inject.prefilter_s", phases.prefilterSeconds);
    j.kv("inject.restore_s", phases.restoreSeconds);
    j.kv("inject.replay_s", phases.replaySeconds);
    j.kv("inject.hash_s", phases.hashSeconds);
    j.kv("inject.dead_window_hits", phases.deadWindowHits);
    j.kv("inject.residency_hits", phases.residencyHits);
    j.kv("inject.hash_converge_hits", phases.hashConvergeHits);
    j.kv("orch.shards", static_cast<std::uint64_t>(progress.executedShards));
    j.kv("store.bytes", store_bytes);
    j.kv("verify.legacy_checked", static_cast<std::uint64_t>(samples.size()));
    j.kv("verify.legacy_mismatch", legacy_mismatch);
    j.kv("verify.shard_mismatch", shard_mismatch);
    j.endObject();
    j.key("shortcuts").beginObject();
    for (const StructureSpec& sspec : structureRegistry())
        j.kv(sspec.shortName, shortcuts[sspec.id]);
    j.endObject();
    j.kv("peak_rss_kib", static_cast<std::uint64_t>(peakRssKib()));
    j.endObject();
    std::cout << '\n';
    return errors.empty() ? 0 : 1;
}

int
usage(const char* why)
{
    std::fprintf(stderr,
                 "study_bench: %s\n"
                 "usage: study_bench --spec=FILE [--seed=S] [--seconds=T] "
                 "[--work-dir=DIR] [--smoke] [--trace=FILE]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char* flag) {
            return arg.substr(std::string(flag).size());
        };
        if (startsWith(arg, "--spec=")) {
            args.spec = value("--spec=");
        } else if (startsWith(arg, "--seed=")) {
            const auto s = parseInt(value("--seed="));
            if (!s || *s < 0)
                return usage("--seed takes a non-negative integer");
            args.seed = static_cast<std::uint64_t>(*s);
        } else if (startsWith(arg, "--seconds=")) {
            const auto s = parseDouble(value("--seconds="));
            if (!s || *s < 0)
                return usage("--seconds takes a non-negative number");
            args.seconds = *s;
        } else if (startsWith(arg, "--work-dir=")) {
            args.workDir = value("--work-dir=");
        } else if (arg == "--smoke") {
            args.smoke = true;
        } else if (startsWith(arg, "--trace=")) {
            args.trace = value("--trace=");
        } else {
            return usage(("unknown argument '" + arg + "'").c_str());
        }
    }
    if (args.spec.empty())
        return usage("--spec is required");

    try {
        return args.trace.empty() ? runTiming(args) : runTrace(args);
    } catch (const PanicError& e) {
        std::fprintf(stderr, "study_bench: internal error: %s\n", e.what());
    } catch (const std::exception& e) { // FatalError: bad spec or I/O
        std::fprintf(stderr, "study_bench: %s\n", e.what());
    }
    return 1;
}
