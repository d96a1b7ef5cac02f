/**
 * @file
 * Batch workloads: the sampled 26x5 Section-4 sweep and the Monte
 * Carlo supply-variation campaign.
 *
 * Untraced, a round is one campaign on a fresh set-up (environment,
 * trace repository, executor with its training set and per-scale
 * models built), so every round simulates its traces again. Set-up is
 * timed apart; the timed section is Executor::run plus campaignToJson
 * and the write of the result document.
 *
 * Traced, an untraced round gives the reference wall and the program's
 * registry counters; the same set-up and round then run again with the
 * program's trace sink on, and the per-layer times are the program's
 * own spans. A probe pass after the timed section splits profileTrace
 * into the network draw, its estimated side, its measured side and the
 * DWT inside the estimate, on the same inputs.
 */

#include <cmath>
#include <memory>
#include <span>

#include "core/emergency_estimator.hh"
#include "core/experiment.hh"
#include "core/variance_model.hh"
#include "power/variation.hh"
#include "runner/executor.hh"
#include "runner/plan.hh"
#include "runner/result_json.hh"
#include "runner/thread_pool.hh"
#include "util/json.hh"
#include "wavelet/basis.hh"
#include "wavelet/dwt.hh"
#include "workload/profile.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace didt;

/** A batch workload: the campaign, its worker count and rounds. */
struct BatchWorkload
{
    std::string name;
    CampaignSpec spec;
    std::size_t jobs = 1;
    std::size_t rounds = 1;
};

/** Set-ups per run, so the reported set-up time is a median. */
constexpr std::size_t kSetups = 3;

/** The paper's sampled geometry (validated in DESIGN.md §15). */
void
sampled(CampaignSpec &spec)
{
    spec.sampleDetail = 4096;
    spec.sampleSkip = 28672;
}

std::vector<BenchmarkProfile>
profiles(std::initializer_list<const char *> names)
{
    std::vector<BenchmarkProfile> out;
    for (const char *name : names)
        out.push_back(profileByName(name));
    return out;
}

BatchWorkload
sweepWorkload(const RunOptions &options)
{
    BatchWorkload w;
    w.name = "sweep";
    sampled(w.spec);
    if (options.tiny) {
        w.spec.profiles = profiles({"gzip", "gcc"});
        w.spec.impedanceScales = {1.0, 1.5};
    }
    // The seed orders the scales. The benchmarks keep their order: it
    // is the order they are simulated in, and the peak resident set
    // depends on it (119 to 149 MB over five shuffles).
    permute(w.spec.impedanceScales, mixSeed(options.seed, 2));
    // One jobs-1 sweep takes about 6.7 s on a shared 4-vCPU AVX2 host.
    w.rounds = options.tiny ? 1 : roundsFor(options.seconds, 6.7);
    return w;
}

BatchWorkload
monteCarloWorkload(const RunOptions &options)
{
    BatchWorkload w;
    w.name = "montecarlo";
    sampled(w.spec);
    // Two short traces and two long ones: a draw's cost is dominated
    // by the long ones.
    w.spec.profiles = profiles({"gzip", "gcc", "mcf", "swim"});
    w.spec.mcDraws = 10;
    w.spec.mcSeed = mixSeed(options.seed, 3) % 1000000;
    w.spec.mcSigmaR = 0.05;
    w.spec.mcSigmaResonance = 0.05;
    w.jobs = 2;
    if (options.tiny) {
        w.spec.profiles = profiles({"gzip"});
        w.spec.impedanceScales = {1.0, 1.5};
        w.spec.mcDraws = 3;
    }
    permute(w.spec.profiles, mixSeed(options.seed, 1));
    // One 4x5x10 campaign takes about 6 s at jobs 2 on a shared
    // 4-vCPU AVX2 host.
    w.rounds = options.tiny ? 1 : roundsFor(options.seconds, 6.0);
    return w;
}

/** Hooks that parent the executor's spans under the calling thread's
 *  open span (a traced run's "setup" or "timed" span). */
ExecutionHooks
underCurrentSpan()
{
    ExecutionHooks hooks;
    hooks.traceContext = obs::currentTraceContext();
    return hooks;
}

/**
 * One set-up: the environment, a fresh trace repository, and an
 * executor whose training set and per-scale models are already built
 * (a plan without cells runs only those phases).
 */
struct BatchSetup
{
    BatchSetup(const CampaignSpec &spec, std::size_t jobs)
        : setup(makeStandardSetup()), repo(setup),
          executor(setup, repo, jobs)
    {
        CampaignPlan warm;
        warm.spec = spec;
        executor.run(warm, underCurrentSpan());
    }

    ExperimentSetup setup;
    TraceRepository repo;
    Executor executor;
};

std::unique_ptr<BatchSetup>
timedSetup(const BatchWorkload &w, const CampaignPlan &plan,
           EndToEnd &e2e)
{
    const Clock::time_point start = Clock::now();
    auto setup = std::make_unique<BatchSetup>(plan.spec, w.jobs);
    e2e.setupSeconds.push_back(secondsSince(start));
    return setup;
}

std::string
cellName(const CampaignCell &cell, bool monte_carlo)
{
    std::string name = cell.benchmark + "@" + jsonNumber(cell.impedanceScale);
    if (monte_carlo)
        name += "@d" + std::to_string(cell.draw);
    return name;
}

/**
 * Check a finished campaign: one attempted operation per cell, failed
 * when the cell failed or its figures are out of range; and a fresh
 * repository must have simulated each workload exactly once.
 */
void
checkCampaign(const CampaignResult &result, const CampaignPlan &plan,
              Report &report)
{
    const bool mc = plan.spec.isMonteCarlo();
    for (const CampaignCell &cell : result.cells) {
        report.attempt();
        if (cell.failed) {
            report.fail(cellName(cell, mc) + ": " + cell.error);
            continue;
        }
        const double pcts[] = {cell.estimatedBelowPct, cell.measuredBelowPct,
                               cell.estimatedAbovePct,
                               cell.measuredAbovePct};
        bool ok = cell.windows > 0 && cell.traceCycles > 0 &&
                  std::isfinite(cell.estimatedVariance) &&
                  std::isfinite(cell.measuredVariance) &&
                  cell.estimatedVariance >= 0.0 &&
                  cell.measuredVariance > 0.0;
        for (double p : pcts)
            ok = ok && std::isfinite(p) && p >= 0.0 && p <= 100.0;
        if (!ok)
            report.fail(cellName(cell, mc) + ": figures out of range");
    }
    report.attempt();
    if (result.cacheStats.simulations != plan.workloadCount())
        report.fail(std::to_string(result.cacheStats.simulations) +
                    " simulations for " +
                    std::to_string(plan.workloadCount()) +
                    " workloads in a fresh repository");
}

double
cellCycles(const CampaignResult &result)
{
    double cycles = 0.0;
    for (const CampaignCell &cell : result.cells)
        cycles += static_cast<double>(cell.traceCycles);
    return cycles;
}

/** One timed campaign: run, serialize, write. */
struct RoundOutput
{
    CampaignResult result;
    std::string json;
    double seconds = 0.0;
};

/** Run @p plan, serialize and write the result document; with a
 *  @p tracer, the serialization and write are a "runner.serialize"
 *  span. */
RoundOutput
timedRound(Executor &executor, const CampaignPlan &plan,
           const std::string &path, Tracer *tracer = nullptr)
{
    RoundOutput out;
    Tracer off(false);
    const Clock::time_point start = Clock::now();
    out.result = executor.run(plan, underCurrentSpan());
    {
        Tracer::Span span(tracer ? *tracer : off, "runner.serialize");
        out.json = campaignToJson(out.result).dump();
        writeFile(path, out.json);
    }
    out.seconds = secondsSince(start);
    return out;
}

/** Compare a round's document with the first round's of this run. */
void
checkDigest(const BatchWorkload &w, const RunOptions &options,
            const std::string &json, std::string &first, Report &report)
{
    const std::string d = digest(json);
    if (first.empty()) {
        first = d;
        report.note("digest " + w.name + " seed=" +
                    std::to_string(options.seed) + " " + d);
        return;
    }
    report.attempt();
    if (d != first)
        report.fail(w.name + ": round digest " + d + " differs from " +
                    first);
}

void
runUntraced(const BatchWorkload &w, const RunOptions &options,
            Report &report)
{
    const CampaignPlan plan = buildCampaignPlan(w.spec);
    const std::string path = options.outDir + "/" + w.name + ".json";
    EndToEnd e2e;
    for (std::size_t i = w.rounds; i < kSetups; ++i) {
        timedSetup(w, plan, e2e);
        releaseFreedMemory();
    }
    std::string first;
    for (std::size_t r = 0; r < w.rounds; ++r) {
        std::unique_ptr<BatchSetup> s = timedSetup(w, plan, e2e);
        const RoundOutput out = timedRound(s->executor, plan, path);
        checkCampaign(out.result, plan, report);
        checkDigest(w, options, out.json, first, report);
        s.reset();
        releaseFreedMemory();
        e2e.rounds.push_back(
            {out.seconds, static_cast<double>(out.result.cells.size()),
             cellCycles(out.result)});
        e2e.requestMs.push_back(out.seconds * 1000.0);
    }
    e2e.peakRssMb = peakRssMb();
    emitEndToEnd(report, e2e);
}

/** Trace request of a single-core benchmark cell, as the executor
 *  builds it. */
TraceRequest
traceRequest(const CampaignSpec &spec, const BenchmarkProfile &profile)
{
    TraceRequest request;
    request.profile = profile;
    request.instructions = spec.instructions;
    request.seed = spec.seed;
    request.trimWarmup = spec.trimWarmup;
    request.sampleDetail = spec.sampleDetail;
    request.sampleSkip = spec.sampleSkip;
    request.sampleWarmup = spec.sampleWarmup;
    return request;
}

AnalysisWorkspace &
workerWorkspace(std::vector<AnalysisWorkspace> &workspaces)
{
    const std::size_t wi = ThreadPool::workerIndex();
    return workspaces[wi == ThreadPool::kNotAWorker ? workspaces.size() - 1
                                                     : wi];
}

/**
 * The probe pass, after the timed section: for every cell of @p result,
 * on the same traces (from @p repo) and networks, the parts of
 * profileTrace under their own spans: the network draw (MC only), the
 * estimated side (VoltageVarianceModel::estimate over every window),
 * the measured side (SupplyNetwork::computeVoltageInto) and the DWT
 * inside the estimate (Dwt::forward over every window). The models
 * are calibrated here, on calibrationTraces, as the executor does.
 */
void
probe(const BatchWorkload &w, const CampaignResult &result,
      const ExperimentSetup &setup, TraceRepository &repo, Tracer &tracer)
{
    const CampaignSpec &spec = w.spec;
    const std::vector<double> &scales = spec.impedanceScales;
    const WaveletBasis basis = WaveletBasis::byName(spec.basis);
    Tracer::Span root(tracer, "probe");
    const std::uint64_t rootId = root.id();
    const std::vector<CurrentTrace> training = calibrationTraces(setup);
    std::vector<std::unique_ptr<SupplyNetwork>> networks;
    std::vector<std::unique_ptr<VoltageVarianceModel>> models;
    for (double scale : scales) {
        networks.push_back(
            std::make_unique<SupplyNetwork>(setup.makeNetwork(scale)));
        models.push_back(std::make_unique<VoltageVarianceModel>(
            *networks.back(), spec.windowLength, spec.levels, basis));
        models.back()->calibrateOnTraces(training);
    }

    ThreadPool pool(w.jobs);
    std::vector<AnalysisWorkspace> workspaces(pool.size() + 1);
    const bool mc = spec.isMonteCarlo();
    const Dwt dwt(basis);
    pool.parallelFor(result.cells.size(), [&](std::size_t ci) {
        const CampaignCell &c = result.cells[ci];
        if (c.failed)
            return;
        const std::size_t pi = ci / (scales.size() * spec.drawCount());
        const std::size_t si = (ci / spec.drawCount()) % scales.size();
        const std::shared_ptr<const CurrentTrace> trace =
            repo.get(traceRequest(spec, spec.effectiveProfiles()[pi]));
        Tracer::Span cell(tracer, "probe.cell", cellName(c, mc), rootId);
        std::unique_ptr<SupplyNetwork> drawn;
        if (mc) {
            Tracer::Span s(tracer, "power.network_build");
            SupplyNetworkConfig varied = drawSupplyConfig(
                setup.supplyBase, spec.variation(),
                deriveDrawSeed(spec.mcSeed, c.draw));
            varied.impedanceScale = c.impedanceScale;
            drawn = std::make_unique<SupplyNetwork>(varied);
        }
        const SupplyNetwork &net = drawn ? *drawn : *networks[si];
        AnalysisWorkspace &ws = workerWorkspace(workspaces);
        const std::span<const double> samples(trace->data(), trace->size());
        const std::size_t window = spec.windowLength;
        {
            Tracer::Span s(tracer, "core.estimate");
            for (std::size_t off = 0; off + window <= samples.size();
                 off += window)
                models[si]->estimate(samples.subspan(off, window), {},
                                     spec.useCorrelation, ws.est, ws);
        }
        {
            Tracer::Span s(tracer, "power.measure");
            net.computeVoltageInto(*trace, ws.voltage);
        }
        {
            Tracer::Span s(tracer, "wavelet.dwt");
            for (std::size_t off = 0; off + window <= samples.size();
                 off += window)
                dwt.forward(samples.subspan(off, window), spec.levels,
                            ws.dec, ws.dwt);
        }
    });
}

/**
 * The traced run: an untraced round (reference wall, registry counters
 * around Executor::run), then the same set-up and round again with the
 * program's trace sink on, then the probe pass. Per-layer times are the
 * program's own spans (campaign.training, campaign.calibrate, the
 * executor's "cell <benchmark>" spans, model.profile_trace) summed by
 * name, plus the harness's spans around campaignToJson and the probe.
 */
void
runTraced(const BatchWorkload &w, const RunOptions &options,
          Report &report)
{
    const CampaignPlan plan = buildCampaignPlan(w.spec);
    const std::string path = options.outDir + "/" + w.name + ".json";
    LayerValues layers;

    std::unique_ptr<BatchSetup> s =
        std::make_unique<BatchSetup>(plan.spec, w.jobs);
    const didt::obs::MetricsSnapshot before = registrySnapshot();
    const RoundOutput untraced = timedRound(s->executor, plan, path);
    const didt::obs::MetricsSnapshot after = registrySnapshot();
    s.reset();
    releaseFreedMemory();
    checkCampaign(untraced.result, plan, report);
    std::string first;
    checkDigest(w, options, untraced.json, first, report);

    auto delta = [&](const char *name) {
        return counterValue(after, name) - counterValue(before, name);
    };
    auto sumDelta = [&](const char *name) {
        return histogramSum(after, name) - histogramSum(before, name);
    };
    layers["sim.simulations"] = delta("repo.simulations");
    layers["sim.simulate_s"] = sumDelta("repo.simulate_ms") / 1000.0;
    layers["sim.cycles"] = delta("sim.cycles");
    if (layers["sim.simulate_s"] > 0.0)
        layers["sim.cycles_per_s"] =
            layers["sim.cycles"] / layers["sim.simulate_s"];
    layers["runner.cell_s"] = sumDelta("campaign.cell_ms") / 1000.0;
    layers["runner.pool_busy_frac"] =
        sumDelta("pool.task_ms") / 1000.0 /
        (static_cast<double>(w.jobs) * untraced.seconds);
    if (delta("repo.lookups") > 0)
        layers["runner.repo_hit_ratio"] =
            delta("repo.memory_hits") / delta("repo.lookups");
    layers["runner.repo_wait_s"] = sumDelta("repo.wait_ms") / 1000.0;

    Tracer tracer(true);
    {
        Tracer::Span span(tracer, "setup");
        s = std::make_unique<BatchSetup>(plan.spec, w.jobs);
    }
    RoundOutput traced;
    {
        Tracer::Span span(tracer, "timed");
        traced = timedRound(s->executor, plan, path, &tracer);
    }
    checkCampaign(traced.result, plan, report);
    checkDigest(w, options, traced.json, first, report);
    probe(w, traced.result, s->setup, s->repo, tracer);

    layers["runner.training_s"] = tracer.total("campaign.training");
    layers["runner.calibrate_s"] = tracer.total("campaign.calibrate");
    layers["runner.serialize_s"] = tracer.total("runner.serialize");
    layers["core.profile_trace_s"] = tracer.total("model.profile_trace");
    layers["core.estimate_s"] = tracer.total("core.estimate");
    layers["power.measure_s"] = tracer.total("power.measure");
    layers["power.network_build_s"] = tracer.total("power.network_build");
    layers["wavelet.dwt_s"] = tracer.total("wavelet.dwt");
    layers["obs.trace_overhead_pct"] =
        100.0 * (traced.seconds - untraced.seconds) / untraced.seconds;
    // Busy time the timed section's spans account for, per worker.
    layers["obs.span_coverage_pct"] =
        100.0 *
        (tracer.totalWithPrefix("cell ") + tracer.total("runner.serialize")) /
        (static_cast<double>(w.jobs) * tracer.total("timed"));
    tracer.writeChromeTrace(options.outDir + "/" + w.name + ".trace.json");
    emitLayers(report, layers);
}

void
runBatch(const BatchWorkload &w, const RunOptions &options, Report &report)
{
    report.context("jobs", std::to_string(w.jobs));
    report.context("rounds", std::to_string(w.rounds));
    report.context("cells_per_round",
                   std::to_string(buildCampaignPlan(w.spec).cellCount()));
    const CpuRotation rotation(w.jobs);
    if (options.trace)
        runTraced(w, options, report);
    else
        runUntraced(w, options, report);
}

} // namespace

void
runSweep(const RunOptions &options, Report &report)
{
    runBatch(sweepWorkload(options), options, report);
}

void
runMonteCarlo(const RunOptions &options, Report &report)
{
    runBatch(monteCarloWorkload(options), options, report);
}

} // namespace perfbench
