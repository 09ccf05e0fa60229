/**
 * @file
 * google-benchmark microbenchmarks of the analysis machinery itself:
 * simulator throughput per GPU model, the cost of a single fault-injection
 * run, and the cost of a full ACE analysis.  Quantifies the paper's
 * "significant gain in the required simulation time" claim for ACE vs FI:
 * one ACE pass replaces a 2,000-run campaign.
 */

#include <benchmark/benchmark.h>

#include <map>
#include <string>

#include "arch/gpu_config.hh"
#include "common/random.hh"
#include "core/orchestrator.hh"
#include "reliability/ace.hh"
#include "reliability/fault_injector.hh"
#include "sim/gpu.hh"
#include "workloads/workloads.hh"

namespace {

using namespace gpr;

const WorkloadInstance&
cachedInstance(GpuModel model, const char* workload)
{
    // One instance per (model, workload); benchmarks only read it.
    // gpr:guarded_by(single-threaded: bench main thread only)
    static std::map<std::pair<GpuModel, std::string>, WorkloadInstance>
        cache;
    const auto key = std::make_pair(model, std::string(workload));
    auto it = cache.find(key);
    if (it == cache.end()) {
        const auto wl = makeWorkload(workload);
        it = cache.emplace(key, wl->build(gpuConfig(model).dialect, {}))
                 .first;
    }
    return it->second;
}

void
BM_GoldenRun(benchmark::State& state, GpuModel model, const char* workload)
{
    const GpuConfig& cfg = gpuConfig(model);
    const WorkloadInstance& inst = cachedInstance(model, workload);
    Gpu gpu(cfg);
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        RunResult r = gpu.run(inst.program, inst.launch, inst.image);
        benchmark::DoNotOptimize(r.stats.cycles);
        instructions += r.stats.warpInstructions;
    }
    state.counters["warp_inst_per_s"] = benchmark::Counter(
        static_cast<double>(instructions), benchmark::Counter::kIsRate);
}

void
BM_SingleInjection(benchmark::State& state, GpuModel model,
                   const char* workload)
{
    const GpuConfig& cfg = gpuConfig(model);
    const WorkloadInstance& inst = cachedInstance(model, workload);
    FaultInjector injector(cfg, inst);
    injector.goldenRun();
    std::uint64_t i = 0;
    for (auto _ : state) {
        Rng rng(deriveSeed(0xBE7C4, i++));
        const InjectionResult r = injector.injectRandom(
            TargetStructure::VectorRegisterFile, rng);
        benchmark::DoNotOptimize(r.outcome);
    }
}

void
BM_AceAnalysis(benchmark::State& state, GpuModel model,
               const char* workload)
{
    const GpuConfig& cfg = gpuConfig(model);
    const WorkloadInstance& inst = cachedInstance(model, workload);
    for (auto _ : state) {
        const AceResult r = runAceAnalysis(cfg, inst);
        benchmark::DoNotOptimize(
            r.forStructure(TargetStructure::VectorRegisterFile)
                .aceUnitCycles);
    }
}

void
BM_OrchestratedStudy(benchmark::State& state)
{
    // A mini grid through the sharded orchestrator: quantifies the
    // scaling of the full-study path (golden-run cache + one global
    // worker pool) as the job count grows.
    StudySpec spec;
    spec.workloads = {"vectoradd", "reduction"};
    spec.gpus = {GpuModel::QuadroFx5600, GpuModel::GeforceGtx480};
    spec.plan.injections = 60;
    spec.jobs = static_cast<unsigned>(state.range(0));
    spec.shardsPerCampaign = 4;
    spec.verbose = false;

    std::size_t shards = 0;
    for (auto _ : state) {
        StudyProgress progress;
        const StudyResult r = runStudy(spec, &progress);
        benchmark::DoNotOptimize(
            r.reports.front()
                .forStructure(TargetStructure::VectorRegisterFile)
                .avfFi);
        shards = progress.totalShards;
    }
    state.counters["shards"] =
        benchmark::Counter(static_cast<double>(shards));
}

void
registerAll()
{
    static const struct
    {
        GpuModel model;
        const char* tag;
    } gpus[] = {
        {GpuModel::HdRadeon7970, "7970"},
        {GpuModel::QuadroFx5600, "fx5600"},
        {GpuModel::QuadroFx5800, "fx5800"},
        {GpuModel::GeforceGtx480, "gtx480"},
    };
    for (const auto& g : gpus) {
        for (const char* wl : {"vectoradd", "reduction"}) {
            benchmark::RegisterBenchmark(
                (std::string("golden_run/") + g.tag + "/" + wl).c_str(),
                [g, wl](benchmark::State& s) { BM_GoldenRun(s, g.model, wl); })
                ->Unit(benchmark::kMillisecond);
            benchmark::RegisterBenchmark(
                (std::string("fi_single_injection/") + g.tag + "/" + wl).c_str(),
                [g, wl](benchmark::State& s) {
                    BM_SingleInjection(s, g.model, wl);
                })
                ->Unit(benchmark::kMillisecond);
            benchmark::RegisterBenchmark(
                (std::string("ace_analysis/") + g.tag + "/" + wl).c_str(),
                [g, wl](benchmark::State& s) {
                    BM_AceAnalysis(s, g.model, wl);
                })
                ->Unit(benchmark::kMillisecond);
        }
    }
    benchmark::RegisterBenchmark("orchestrated_study/jobs",
                                 BM_OrchestratedStudy)
        ->Arg(1)
        ->Arg(4)
        ->Arg(8)
        ->Unit(benchmark::kMillisecond);
}

} // namespace

int
main(int argc, char** argv)
{
    registerAll();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
