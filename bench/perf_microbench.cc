/**
 * @file
 * Google-benchmark microbenchmarks for the library's hot paths:
 * the O(N) fast wavelet transform (the paper's complexity claim),
 * per-cycle monitor updates, the supply-network recursion, and the
 * cycle-level processor model.
 */

#include <benchmark/benchmark.h>

#include <chrono>

#include "didt/didt.hh"
#include "util/simd.hh"
#include "workload/virus.hh"

namespace
{

using namespace didt;

SupplyNetworkConfig
benchSupplyConfig()
{
    SupplyNetworkConfig cfg;
    cfg.resonantHz = 125.0e6;
    cfg.qualityFactor = 5.0;
    cfg.dcResistance = 3.0e-4;
    return cfg;
}

std::vector<double>
benchSignal(std::size_t n)
{
    Rng rng(99);
    std::vector<double> xs(n);
    for (auto &x : xs)
        x = rng.normal(40.0, 10.0);
    return xs;
}

/** Fast DWT throughput; linear scaling demonstrates the O(N) claim. */
void
BM_DwtForward(benchmark::State &state)
{
    const Dwt dwt(WaveletBasis::haar());
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto signal = benchSignal(n);
    const std::size_t levels = dwt.maxLevels(n);
    for (auto _ : state) {
        auto dec = dwt.forward(signal, levels);
        benchmark::DoNotOptimize(dec);
    }
    state.SetComplexityN(state.range(0));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DwtForward)->RangeMultiplier(4)->Range(64, 65536)->Complexity();

/**
 * The same forward transform through the in-place API with a reused
 * decomposition and workspace: after the first iteration the loop body
 * never touches the allocator. Compare against BM_DwtForward at the
 * same size for the cost of allocating a fresh decomposition and
 * workspace per call.
 */
void
BM_DwtForwardWorkspace(benchmark::State &state)
{
    const Dwt dwt(WaveletBasis::haar());
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto signal = benchSignal(n);
    const std::size_t levels = dwt.maxLevels(n);
    FlatDecomposition dec;
    DwtWorkspace ws;
    for (auto _ : state) {
        dwt.forward(signal, levels, dec, ws);
        benchmark::DoNotOptimize(dec.coefficients().data());
    }
    state.SetComplexityN(state.range(0));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DwtForwardWorkspace)
    ->RangeMultiplier(4)
    ->Range(64, 65536)
    ->Complexity();

void
BM_DwtInverse(benchmark::State &state)
{
    const Dwt dwt(WaveletBasis::haar());
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto dec = dwt.forward(benchSignal(n), dwt.maxLevels(n));
    for (auto _ : state) {
        auto signal = dwt.inverse(dec);
        benchmark::DoNotOptimize(signal);
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DwtInverse)->RangeMultiplier(4)->Range(64, 65536)->Complexity();

/** Per-cycle cost of the wavelet monitor vs the full convolution. */
void
BM_WaveletMonitorUpdate(benchmark::State &state)
{
    const SupplyNetwork net(benchSupplyConfig());
    WaveletMonitor monitor(net,
                           static_cast<std::size_t>(state.range(0)));
    Rng rng(3);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            monitor.update(rng.normal(40.0, 10.0), 1.0));
}
BENCHMARK(BM_WaveletMonitorUpdate)->Arg(9)->Arg(13)->Arg(20)->Arg(256);

void
BM_FullConvolutionUpdate(benchmark::State &state)
{
    const SupplyNetwork net(benchSupplyConfig());
    FullConvolutionMonitor monitor(net);
    Rng rng(4);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            monitor.update(rng.normal(40.0, 10.0), 1.0));
}
BENCHMARK(BM_FullConvolutionUpdate);

/** Batch voltage computation over a long trace (biquad recursion). */
void
BM_ComputeVoltage(benchmark::State &state)
{
    const SupplyNetwork net(benchSupplyConfig());
    const CurrentTrace trace = benchSignal(
        static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        auto v = net.computeVoltage(trace);
        benchmark::DoNotOptimize(v);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ComputeVoltage)->Arg(65536);

/** Cycle throughput of the out-of-order processor model. */
void
BM_ProcessorStep(benchmark::State &state)
{
    DiDtVirus virus = DiDtVirus::tunedFor(3.0e9, 125.0e6, 4, 20);
    Processor proc({}, {}, virus);
    for (auto _ : state)
        benchmark::DoNotOptimize(proc.step());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProcessorStep);

/**
 * Cycle throughput per workload class: the same step() loop driven by
 * a compute-bound (gzip), floating-point (mgrid), and memory-bound
 * (mcf) synthetic stream instead of the dI/dt virus. The classes
 * stress different pipeline paths — mcf keeps the window full of
 * stalled loads, mgrid exercises the FP issue ports — so a hot-loop
 * regression that BM_ProcessorStep's virus misses shows up here.
 * End to end, perfbench's control workload times unsampled
 * simulation.
 */
void
BM_ProcessorStepClass(benchmark::State &state)
{
    static const ExperimentSetup setup = makeStandardSetup();
    const char *kClasses[] = {"gzip", "mgrid", "mcf"};
    const char *name = kClasses[state.range(0)];
    state.SetLabel(name);
    SyntheticWorkload source(profileByName(name),
                             std::uint64_t{1} << 40, 0);
    Processor proc(setup.proc, setup.power, source);
    for (auto _ : state)
        benchmark::DoNotOptimize(proc.step());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProcessorStepClass)
    ->ArgNames({"class"})
    ->Arg(0)
    ->Arg(1)
    ->Arg(2);

/**
 * Full benchmark trace collection, full-detail vs sampled: the
 * end-to-end cost one campaign cell pays for its trace. The sampled
 * row runs the validated 4096/28672/512 configuration (12.5% detailed
 * cycles — the most aggressive geometry verify::Oracle::checkSampling
 * holds green across all 26 profiles), covering the same virtual
 * cycles; the ratio of the two rows is the sampling speedup, and
 * tests/simfast_test.cc bounds what the skip costs in analysis
 * accuracy.
 */
void
BM_CollectTraceSampled(benchmark::State &state)
{
    static const ExperimentSetup setup = makeStandardSetup();
    SamplingConfig sampling;
    if (state.range(0) != 0) {
        sampling.detailCycles = 4096;
        sampling.skipCycles = 28672;
        sampling.warmupCycles = 512;
    }
    std::size_t cycles = 0;
    for (auto _ : state) {
        const CurrentTrace trace = benchmarkCurrentTrace(
            setup, profileByName("gzip"), 120000, 0, 4096, sampling);
        cycles = trace.size();
        benchmark::DoNotOptimize(trace.data());
    }
    state.counters["trace_cycles"] = static_cast<double>(cycles);
}
BENCHMARK(BM_CollectTraceSampled)
    ->ArgNames({"sampled"})
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/**
 * Characterization campaign, full-detail vs sampled, at the default
 * per-cell instruction budget: 8 benchmarks x 2 scales with a fresh
 * in-memory repository per iteration. Simulation dominates this
 * configuration (each workload is simulated once and analyzed twice),
 * so the row pair approximates the campaign-throughput gain sampling
 * buys on the full 26x5 sweep.
 */
void
BM_SampledCampaign(benchmark::State &state)
{
    static const ExperimentSetup setup = makeStandardSetup();
    CampaignSpec spec;
    {
        const auto &all = spec2000Profiles();
        spec.profiles.assign(all.begin(), all.begin() + 8);
    }
    spec.impedanceScales = {1.0, 1.2};
    spec.windowLength = 128;
    spec.levels = 6;
    spec.instructions = 120000;
    if (state.range(0) != 0) {
        spec.sampleDetail = 4096;
        spec.sampleSkip = 28672;
        spec.sampleWarmup = 512;
    }
    for (auto _ : state) {
        TraceRepository repo(setup);
        const CampaignResult result =
            runCharacterizationCampaign(setup, spec, repo, 1);
        benchmark::DoNotOptimize(result.cells.data());
    }
    state.counters["cells"] = static_cast<double>(
        spec.profiles.size() * spec.impedanceScales.size());
}
BENCHMARK(BM_SampledCampaign)
    ->ArgNames({"sampled"})
    ->Arg(0)
    ->Arg(1)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/**
 * Cycle throughput of the N-core chip model: per-core dI/dt viruses
 * behind private L1s and the shared banked L2. Read against
 * BM_ProcessorStep, the cores=1 row prices the Chip wrapper over the
 * bare uniprocessor and the 2/4-core rows price lockstep stepping
 * plus aggregation.
 */
void
BM_ChipStep(benchmark::State &state)
{
    const auto cores = static_cast<std::size_t>(state.range(0));
    std::vector<DiDtVirus> viruses(
        cores, DiDtVirus::tunedFor(3.0e9, 125.0e6, 4, 20));
    std::vector<InstructionSource *> sources;
    sources.reserve(cores);
    for (auto &v : viruses)
        sources.push_back(&v);
    ChipConfig cfg;
    cfg.cores = cores;
    Chip chip(cfg, {}, sources);
    for (auto _ : state) {
        benchmark::DoNotOptimize(chip.step());
        benchmark::DoNotOptimize(chip.lastAggregateCurrent());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(cores));
}
BENCHMARK(BM_ChipStep)->ArgNames({"cores"})->Arg(1)->Arg(2)->Arg(4);

/** Shared fixture for the profileTrace rows: one calibrated model and
 *  a 32-window trace, built once. */
struct ProfileBenchFixture
{
    SupplyNetwork net{benchSupplyConfig()};
    VoltageVarianceModel model{net, 256, 8, WaveletBasis::haar()};
    CurrentTrace trace;

    ProfileBenchFixture()
    {
        Rng rng(7);
        model.calibrate(rng, 1);
        trace = benchSignal(256 * 32);
    }
};

ProfileBenchFixture &
profileBenchFixture()
{
    static ProfileBenchFixture fixture;
    return fixture;
}

/** Full-trace emergency profiling through the allocating entry point
 *  (which builds a fresh workspace per call). */
void
BM_ProfileTrace(benchmark::State &state)
{
    ProfileBenchFixture &fx = profileBenchFixture();
    for (auto _ : state) {
        const EmergencyProfile ep =
            profileTrace(fx.trace, fx.net, fx.model, 0.97, 1.03);
        benchmark::DoNotOptimize(ep);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(fx.trace.size()));
}
BENCHMARK(BM_ProfileTrace);

/** The same profiling with a caller-owned workspace reused across
 *  calls — the campaign's per-worker configuration. */
void
BM_ProfileTraceWorkspace(benchmark::State &state)
{
    ProfileBenchFixture &fx = profileBenchFixture();
    AnalysisWorkspace ws;
    for (auto _ : state) {
        const EmergencyProfile ep =
            profileTrace(fx.trace, fx.net, fx.model, 0.97, 1.03, ws);
        benchmark::DoNotOptimize(ep);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(fx.trace.size()));
}
BENCHMARK(BM_ProfileTraceWorkspace);

/** Chi-square normality classification of one 64-cycle window. */
void
BM_NormalityTest(benchmark::State &state)
{
    const auto window = benchSignal(64);
    for (auto _ : state)
        benchmark::DoNotOptimize(chiSquareNormalityTest(window));
}
BENCHMARK(BM_NormalityTest);

/**
 * End-to-end characterization campaign, serial vs parallel: the same
 * 8-benchmark x 3-scale sweep at jobs=1 and jobs=hardware. Each
 * iteration uses a fresh in-memory TraceRepository, so the measured
 * time covers trace simulation, model calibration, and analysis; on a
 * multi-core machine the jobs:0 row should approach
 * jobs:1 / core-count.
 */
void
BM_CharacterizationCampaign(benchmark::State &state)
{
    static const ExperimentSetup setup = makeStandardSetup();
    CampaignSpec spec;
    {
        const auto &all = spec2000Profiles();
        spec.profiles.assign(all.begin(), all.begin() + 8);
    }
    spec.impedanceScales = {1.0, 1.2, 1.5};
    spec.windowLength = 128;
    spec.levels = 6;
    spec.instructions = 30000;
    const auto jobs = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        TraceRepository repo(setup);
        const CampaignResult result =
            runCharacterizationCampaign(setup, spec, repo, jobs);
        benchmark::DoNotOptimize(result.cells.data());
    }
    state.counters["jobs"] = static_cast<double>(
        ThreadPool::resolveJobs(jobs));
    state.counters["cells"] = static_cast<double>(
        spec.profiles.size() * spec.impedanceScales.size());
}
BENCHMARK(BM_CharacterizationCampaign)
    ->Arg(1)  // serial reference
    ->Arg(0)  // one worker per hardware thread
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/**
 * Metrics-instrumentation overhead: the same small campaign with
 * collection disabled vs enabled. Each configuration runs several
 * times and the minimum is kept — run-to-run wall-clock noise on a
 * shared machine swamps the few-permille true overhead, and min is
 * the standard noise-robust estimator. overhead_pct must stay in the
 * low single digits for always-on metrics to be an acceptable
 * default.
 */
void
BM_CampaignMetricsOverhead(benchmark::State &state)
{
    static const ExperimentSetup setup = makeStandardSetup();
    CampaignSpec spec;
    {
        const auto &all = spec2000Profiles();
        spec.profiles.assign(all.begin(), all.begin() + 4);
    }
    spec.impedanceScales = {1.0, 1.2};
    spec.windowLength = 128;
    spec.levels = 6;
    spec.instructions = 30000;

    constexpr int kReps = 3;
    const bool was_enabled = obs::metricsEnabled();
    double off_ms = 0.0;
    double on_ms = 0.0;
    for (auto _ : state) {
        // Interleave the configurations so slow machine-load drift hits
        // both equally instead of biasing whichever runs later.
        double best_off = 0.0;
        double best_on = 0.0;
        for (int rep = 0; rep < kReps; ++rep) {
            for (const bool enabled : {false, true}) {
                obs::setMetricsEnabled(enabled);
                TraceRepository repo(setup);
                const auto start = std::chrono::steady_clock::now();
                const CampaignResult result =
                    runCharacterizationCampaign(setup, spec, repo, 1);
                const double ms =
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
                double &best = enabled ? best_on : best_off;
                if (rep == 0 || ms < best)
                    best = ms;
                benchmark::DoNotOptimize(result.cells.data());
            }
        }
        off_ms += best_off;
        on_ms += best_on;
    }
    obs::setMetricsEnabled(was_enabled);
    state.counters["metrics_off_ms"] = off_ms;
    state.counters["metrics_on_ms"] = on_ms;
    state.counters["overhead_pct"] =
        off_ms > 0.0 ? 100.0 * (on_ms - off_ms) / off_ms : 0.0;
}
BENCHMARK(BM_CampaignMetricsOverhead)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/**
 * Failpoint-hook overhead on the analysis hot path. Arg 0 runs
 * BM_ProfileTraceWorkspace's configuration with the failpoint registry
 * disarmed (each compiled-in site is one relaxed atomic load); arg 1
 * runs it with an armed-but-idle site, which routes every evaluated
 * site through the registry lock. The per-window analysis loop
 * deliberately contains no failpoint sites, so both rows must sit on
 * top of the plain BM_ProfileTraceWorkspace row (<1%); a regression
 * here means a hook crept into a per-cycle loop.
 */
void
BM_ProfileTraceFailpoints(benchmark::State &state)
{
    ProfileBenchFixture &fx = profileBenchFixture();
    const bool armed = state.range(0) == 1;
    verify::resetFailPoints();
    if (armed)
        verify::armFailPoint(
            "bench.idle",
            verify::TriggerPolicy::keyEquals("never-matches"));
    AnalysisWorkspace ws;
    for (auto _ : state) {
        const EmergencyProfile ep =
            profileTrace(fx.trace, fx.net, fx.model, 0.97, 1.03, ws);
        benchmark::DoNotOptimize(ep);
    }
    verify::resetFailPoints();
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(fx.trace.size()));
    state.counters["failpoints_armed"] = armed ? 1.0 : 0.0;
}
BENCHMARK(BM_ProfileTraceFailpoints)->Arg(0)->Arg(1);

/**
 * Failpoint-hook overhead on the campaign row, measured like
 * BM_CampaignMetricsOverhead (interleaved reps, min kept): the same
 * small campaign with the registry disarmed vs an armed-but-idle site.
 * The campaign path evaluates a handful of sites per cell (pool.task,
 * campaign.cell, repository reads/writes) — coarse-grained enough that
 * overhead_pct must stay under 1% even armed. With
 * -DDIDT_FAILPOINTS=OFF both rows measure the compiled-out hooks and
 * the delta collapses to pure noise.
 */
void
BM_CampaignFailpointOverhead(benchmark::State &state)
{
    static const ExperimentSetup setup = makeStandardSetup();
    CampaignSpec spec;
    {
        const auto &all = spec2000Profiles();
        spec.profiles.assign(all.begin(), all.begin() + 4);
    }
    spec.impedanceScales = {1.0, 1.2};
    spec.windowLength = 128;
    spec.levels = 6;
    spec.instructions = 30000;

    constexpr int kReps = 3;
    double off_ms = 0.0;
    double armed_ms = 0.0;
    for (auto _ : state) {
        double best_off = 0.0;
        double best_armed = 0.0;
        for (int rep = 0; rep < kReps; ++rep) {
            for (const bool armed : {false, true}) {
                verify::resetFailPoints();
                if (armed)
                    verify::armFailPoint(
                        "bench.idle",
                        verify::TriggerPolicy::keyEquals(
                            "never-matches"));
                TraceRepository repo(setup);
                const auto start = std::chrono::steady_clock::now();
                const CampaignResult result =
                    runCharacterizationCampaign(setup, spec, repo, 1);
                const double ms =
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
                double &best = armed ? best_armed : best_off;
                if (rep == 0 || ms < best)
                    best = ms;
                benchmark::DoNotOptimize(result.cells.data());
            }
        }
        off_ms += best_off;
        armed_ms += best_armed;
    }
    verify::resetFailPoints();
    state.counters["failpoints_off_ms"] = off_ms;
    state.counters["failpoints_armed_ms"] = armed_ms;
    state.counters["overhead_pct"] =
        off_ms > 0.0 ? 100.0 * (armed_ms - off_ms) / off_ms : 0.0;
}
BENCHMARK(BM_CampaignFailpointOverhead)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---------------------------------------------------------------------------
// SIMD kernel rows: each benchmark takes a leading "simd" argument
// (0 = scalar reference, 1 = best CPU-dispatched level), so each
// pair of rows gives that kernel's speedup. Results are
// bit-identical either way (tests/simd_test.cc); only the time moves.
// ---------------------------------------------------------------------------

/** Pin the kernel level for one benchmark run per its simd arg. */
struct SimdLevelArg
{
    explicit SimdLevelArg(benchmark::State &state)
    {
        if (state.range(0) == 0)
            simd::forceLevel(simd::Level::Scalar);
        else
            simd::clearForcedLevel();
        state.SetLabel(simd::levelName(simd::activeLevel()));
    }
    ~SimdLevelArg() { simd::clearForcedLevel(); }
};

void
BM_DwtForwardSimd(benchmark::State &state)
{
    SimdLevelArg level(state);
    const Dwt dwt(WaveletBasis::haar());
    const auto n = static_cast<std::size_t>(state.range(1));
    const auto signal = benchSignal(n);
    const std::size_t levels = dwt.maxLevels(n);
    FlatDecomposition dec;
    DwtWorkspace ws;
    for (auto _ : state) {
        dwt.forward(signal, levels, dec, ws);
        benchmark::DoNotOptimize(dec.coefficients().data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DwtForwardSimd)
    ->ArgNames({"simd", "n"})
    ->Args({0, 256})
    ->Args({1, 256})
    ->Args({0, 65536})
    ->Args({1, 65536});

void
BM_DwtInverseSimd(benchmark::State &state)
{
    SimdLevelArg level(state);
    const Dwt dwt(WaveletBasis::haar());
    const auto n = static_cast<std::size_t>(state.range(1));
    FlatDecomposition dec;
    DwtWorkspace ws;
    dwt.forward(benchSignal(n), dwt.maxLevels(n), dec, ws);
    std::vector<double> out(n);
    for (auto _ : state) {
        dwt.inverse(dec, out, ws);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DwtInverseSimd)
    ->ArgNames({"simd", "n"})
    ->Args({0, 256})
    ->Args({1, 256})
    ->Args({0, 65536})
    ->Args({1, 65536});

/** MODWT wavelet variance with the 12-tap db6 filter: the general
 *  filter-step kernel with real per-tap work. */
void
BM_ModwtVarianceSimd(benchmark::State &state)
{
    SimdLevelArg level(state);
    const Modwt modwt(WaveletBasis::daubechies6());
    const auto n = static_cast<std::size_t>(state.range(1));
    const auto signal = benchSignal(n);
    std::vector<double> var(6);
    DwtWorkspace ws;
    for (auto _ : state) {
        modwt.waveletVariance(signal, var.size(), var, ws);
        benchmark::DoNotOptimize(var.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ModwtVarianceSimd)
    ->ArgNames({"simd", "n"})
    ->Args({0, 256})
    ->Args({1, 256})
    ->Args({0, 4096})
    ->Args({1, 4096});

/** Batch convolution with the truncated supply impulse response —
 *  the offline analogue of the full-convolution monitor. */
void
BM_ConvolveIntoSimd(benchmark::State &state)
{
    SimdLevelArg level(state);
    const SupplyNetwork net(benchSupplyConfig());
    const std::vector<double> kernel =
        truncateKernel(net.impulseResponse());
    const auto n = static_cast<std::size_t>(state.range(1));
    const auto x = benchSignal(n);
    std::vector<double> out;
    for (auto _ : state) {
        convolveInto(x, kernel, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.counters["taps"] = static_cast<double>(kernel.size());
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ConvolveIntoSimd)
    ->ArgNames({"simd", "n"})
    ->Args({0, 4096})
    ->Args({1, 4096});

/** Whole-pipeline profileTrace at the paper's 256-cycle window. */
void
BM_ProfileTraceSimd(benchmark::State &state)
{
    SimdLevelArg level(state);
    ProfileBenchFixture &fx = profileBenchFixture();
    AnalysisWorkspace ws;
    for (auto _ : state) {
        const EmergencyProfile ep =
            profileTrace(fx.trace, fx.net, fx.model, 0.97, 1.03, ws);
        benchmark::DoNotOptimize(ep);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(fx.trace.size()));
}
BENCHMARK(BM_ProfileTraceSimd)
    ->ArgNames({"simd"})
    ->Arg(0)
    ->Arg(1);

/** Voltage histogram accumulation (fig10/11 inner loop). */
void
BM_HistogramPushBlockSimd(benchmark::State &state)
{
    SimdLevelArg level(state);
    const auto xs = benchSignal(65536);
    Histogram hist(0.0, 80.0, 30);
    for (auto _ : state) {
        hist.pushBlock(xs);
        benchmark::DoNotOptimize(hist.total());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(xs.size()));
}
BENCHMARK(BM_HistogramPushBlockSimd)
    ->ArgNames({"simd"})
    ->Arg(0)
    ->Arg(1);

/** Reusable-buffer voltage computation: the sequential biquad
 *  recurrence that deliberately stays scalar (not vectorizable without
 *  reassociating the recursion). Tracked so regressions in the scalar
 *  hot loop are visible next to the SIMD rows. */
void
BM_ComputeVoltageInto(benchmark::State &state)
{
    const SupplyNetwork net(benchSupplyConfig());
    const CurrentTrace trace =
        benchSignal(static_cast<std::size_t>(state.range(0)));
    VoltageTrace voltage;
    for (auto _ : state) {
        net.computeVoltageInto(trace, voltage);
        benchmark::DoNotOptimize(voltage.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ComputeVoltageInto)->Arg(65536);

/** Per-cycle cost of the streaming convolver's ring walk (the
 *  FullConvolutionMonitor inner loop behind table2). */
void
BM_StreamingConvolverPush(benchmark::State &state)
{
    const SupplyNetwork net(benchSupplyConfig());
    StreamingConvolver conv(truncateKernel(net.impulseResponse()));
    Rng rng(5);
    for (auto _ : state) {
        conv.push(rng.normal(40.0, 10.0));
        benchmark::DoNotOptimize(conv.value());
    }
    state.counters["taps"] = static_cast<double>(conv.taps());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StreamingConvolverPush);

/**
 * Closed-loop cosim with the monomorphized chunked loop (devirt:1)
 * vs the per-cycle virtual reference (devirt:0) — the fig15/table2
 * driver. Results are identical (tests/simd_test.cc); the row pair
 * prices the per-cycle virtual dispatch.
 */
void
BM_CosimClosedLoop(benchmark::State &state)
{
    static const ExperimentSetup setup = makeStandardSetup();
    static const SupplyNetwork net = setup.makeNetwork(1.5);
    CosimConfig cfg;
    cfg.instructions = 150000;
    cfg.scheme = ControlScheme::Wavelet;
    cfg.control.tolerance = 0.020;
    cfg.devirtualize = state.range(0) != 0;
    for (auto _ : state) {
        const CosimResult r = runClosedLoop(
            profileByName("gzip"), setup.proc, setup.power, net, cfg);
        benchmark::DoNotOptimize(r.cycles);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(cfg.instructions));
}
BENCHMARK(BM_CosimClosedLoop)
    ->ArgNames({"devirt"})
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
