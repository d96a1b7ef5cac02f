#include "runner/executor.hh"

#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <future>
#include <optional>
#include <stdexcept>

#include "core/emergency_estimator.hh"
#include "obs/metrics.hh"
#include "power/variation.hh"
#include "obs/scoped_timer.hh"
#include "util/json.hh"
#include "util/simd.hh"
#include "verify/failpoint.hh"
#include "wavelet/basis.hh"
#include "workload/generator.hh"
#include "workload/mix.hh"

namespace didt
{

namespace
{

using Clock = std::chrono::steady_clock;

double
millisSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

/** Campaign-level metrics (sidecar only; never read for result JSON). */
struct CampaignMetrics
{
    obs::Counter cells;
    obs::Counter cellFailures;
    obs::Counter cellsInterrupted;
    obs::Counter estimatePasses;
    obs::Counter measurePasses;
    obs::Histogram cellMs;
    obs::Histogram calibrateMs;
};

CampaignMetrics &
campaignMetrics()
{
    auto &registry = obs::MetricsRegistry::global();
    static CampaignMetrics metrics{
        registry.counter("campaign.cells"),
        registry.counter("campaign.cell_failures"),
        registry.counter("campaign.cells_interrupted"),
        registry.counter("campaign.estimate_passes"),
        registry.counter("campaign.measure_passes"),
        registry.histogram("campaign.cell_ms"),
        registry.histogram("campaign.calibrate_ms"),
    };
    return metrics;
}

/**
 * Stable identity of one campaign cell, used as the failpoint key for
 * the campaign.cell site and in failure messages: "mcf@1.2". The scale
 * prints exactly like the result JSON, so spec strings can be copied
 * from campaign output.
 */
std::string
cellKey(const std::string &benchmark, double scale, std::size_t cores = 1,
        std::size_t draw = 0, bool monte_carlo = false)
{
    std::string key = benchmark + "@" + jsonNumber(scale);
    // Chip and Monte Carlo cells extend the key; single-core MC-off
    // cells keep the historical form so existing failpoint specs stay
    // valid.
    if (cores != 1)
        key += "@c" + std::to_string(cores);
    if (monte_carlo)
        key += "@d" + std::to_string(draw);
    return key;
}

/**
 * Build the trace request for one plan cell. A single-core cell —
 * including a 1-core mix cell, which collapses to its core-0 profile
 * and seed — produces exactly the legacy request, so its cache
 * fingerprint (and on-disk trace file) is unchanged; a multi-core
 * cell carries per-core profiles with deterministically derived
 * seeds. Throws on unknown mix names (serve-safe: the failure lands
 * in the cell, not the process).
 */
TraceRequest
cellTraceRequest(const CampaignSpec &spec, std::size_t workload_index,
                 std::size_t cores)
{
    TraceRequest request;
    request.instructions = spec.instructions;
    request.trimWarmup = spec.trimWarmup;
    request.sampleDetail = spec.sampleDetail;
    request.sampleSkip = spec.sampleSkip;
    request.sampleWarmup = spec.sampleWarmup;

    if (spec.mixes.empty()) {
        // Benchmarks axis: the benchmark is cloned across cores with
        // derived per-core seeds.
        const BenchmarkProfile &profile =
            spec.profiles[workload_index];
        request.profile = profile;
        request.seed = spec.seed;
        if (cores > 1) {
            request.cores = cores;
            request.l2Banks = spec.l2Banks;
            request.l2BankPenalty = spec.l2BankPenalty;
            for (std::size_t i = 0; i < cores; ++i) {
                request.coreProfiles.push_back(profile);
                request.coreSeeds.push_back(
                    deriveCoreSeed(spec.seed, i));
            }
        }
        return request;
    }

    const std::string &name = spec.mixes[workload_index];
    const std::optional<WorkloadMix> mix = findMixByName(name);
    if (!mix)
        throw std::runtime_error("unknown workload mix: " + name);
    request.profile = mixProfileForCore(*mix, 0);
    request.seed = mixCoreSeed(*mix, spec.seed, 0);
    if (cores > 1) {
        request.cores = cores;
        request.l2Banks = spec.l2Banks;
        request.l2BankPenalty = spec.l2BankPenalty;
        for (std::size_t i = 0; i < cores; ++i) {
            request.coreProfiles.push_back(mixProfileForCore(*mix, i));
            request.coreSeeds.push_back(
                mixCoreSeed(*mix, spec.seed, i));
        }
    }
    return request;
}

/**
 * The estimated side of one (workload, core count) group: one profile
 * per impedance scale, of which only the estimated fields and the
 * window count are set. Filled by the first cell of the group that
 * has its trace; a cell that throws while filling it leaves done
 * false, and the next cell of the group tries again. (A mutex and a
 * flag rather than std::call_once: ThreadSanitizer's pthread_once
 * interceptor deadlocks when the callable throws.)
 */
struct GroupEstimate
{
    std::mutex mutex;
    bool done = false;
    std::vector<EmergencyProfile> sides;
};

/**
 * The measured side of one chunk of a group's cells: the chunk's
 * members' supply networks measured in one pass over the group's
 * trace, one network per SIMD lane. Filled by the first member of the
 * chunk to run; the others copy their lane. Same mutex, flag and
 * retry-after-throw scheme as GroupEstimate.
 */
struct MeasureChunk
{
    std::mutex mutex;
    bool done = false;
    std::vector<EmergencyProfile> sides; ///< measured fields, lane order
};

std::uint64_t
doubleBits(double value)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

} // namespace

Executor::Executor(const ExperimentSetup &setup, TraceRepository &repo,
                   std::size_t jobs)
    : setup_(setup), repo_(repo), pool_(jobs),
      workspaces_(pool_.size() + 1)
{
}

std::size_t
Executor::cachedModels() const
{
    std::lock_guard<std::mutex> lock(modelsMutex_);
    return models_.size();
}

const std::vector<CurrentTrace> &
Executor::trainingTraces()
{
    std::lock_guard<std::mutex> lock(trainingMutex_);
    if (!trainingBuilt_) {
        const std::vector<std::function<CurrentTrace()>> builders =
            calibrationTraceBuilders(setup_);
        training_.resize(builders.size());
        obs::ScopedTimer phase("campaign.training", {}, nullptr,
                               "campaign");
        // Workers start with an empty TraceContext; re-apply the
        // caller's so the per-trace work nests under the phase span.
        const obs::TraceContext ctx = obs::currentTraceContext();
        pool_.parallelFor(builders.size(), [&](std::size_t i) {
            obs::ScopedTraceContext scope(ctx);
            training_[i] = builders[i]();
        });
        trainingBuilt_ = true;
    }
    return training_;
}

std::vector<const Executor::CalibratedScale *>
Executor::calibratedScales(const CampaignSpec &spec)
{
    const std::vector<double> &scales = spec.impedanceScales;
    std::vector<const CalibratedScale *> result(scales.size(), nullptr);

    // The lock is held across the whole calibration phase: concurrent
    // runs serialize here (the parallelFor still fans out across the
    // pool), and an entry is never replaced once inserted, so returned
    // pointers stay valid for the executor's lifetime.
    std::lock_guard<std::mutex> lock(modelsMutex_);

    std::vector<std::size_t> missing;
    for (std::size_t si = 0; si < scales.size(); ++si) {
        const ModelKey key{doubleBits(scales[si]), spec.windowLength,
                           spec.levels, spec.basis};
        auto it = models_.find(key);
        if (it != models_.end()) {
            result[si] = it->second.get();
        } else {
            auto entry = std::make_unique<CalibratedScale>(
                setup_.makeNetwork(scales[si]));
            result[si] = entry.get();
            models_.emplace(key, std::move(entry));
            missing.push_back(si);
        }
    }
    if (missing.empty())
        return result;

    const std::vector<CurrentTrace> &training = trainingTraces();
    const WaveletBasis basis = WaveletBasis::byName(spec.basis);
    obs::ScopedTimer phase("campaign.calibrate", {}, nullptr,
                           "campaign");
    const obs::TraceContext ctx = obs::currentTraceContext();
    pool_.parallelFor(missing.size(), [&](std::size_t mi) {
        obs::ScopedTraceContext scope(ctx);
        obs::ScopedTimer timer("calibrate scale",
                               campaignMetrics().calibrateMs, nullptr,
                               "campaign");
        const std::size_t si = missing[mi];
        // result[si] points at the entry this run just inserted, so
        // writing through the const_cast is exclusive to this task.
        auto *entry = const_cast<CalibratedScale *>(result[si]);
        auto model = std::make_unique<VoltageVarianceModel>(
            entry->network, spec.windowLength, spec.levels, basis);
        model->calibrateOnTraces(training);
        entry->model = std::move(model);
    });
    return result;
}

CampaignResult
Executor::run(const CampaignPlan &plan, const ExecutionHooks &hooks)
{
    if (std::string error; !plan.spec.validate(&error))
        throw std::invalid_argument("invalid campaign spec: " + error);
    const Clock::time_point campaign_start = Clock::now();

    // Attach this run's spans under the caller-provided context (the
    // serve dispatcher passes its batch span; batch CLI passes the
    // default root), for this thread and — via capture below — the
    // pool workers evaluating cells.
    obs::ScopedTraceContext run_context(hooks.traceContext);

    CampaignResult result;
    result.spec = plan.spec;
    result.jobs = pool_.size();
    const std::vector<double> &scales = plan.spec.impedanceScales;
    const std::vector<std::size_t> &coreCounts =
        plan.spec.effectiveCoreCounts();

    result.cells.resize(plan.cellCount());
    if (hooks.cellCacheDeltas) {
        hooks.cellCacheDeltas->clear();
        hooks.cellCacheDeltas->resize(plan.cellCount());
    }
    std::vector<TraceCacheStats> localDeltas;
    std::vector<TraceCacheStats> &deltas =
        hooks.cellCacheDeltas ? *hooks.cellCacheDeltas : localDeltas;
    if (!hooks.cellCacheDeltas)
        deltas.resize(plan.cellCount());

    // Phase 1+2: training set and per-scale calibrated models, both
    // memoized across runs. A run that arrives pre-cancelled skips
    // calibration entirely and reports every cell as interrupted.
    const bool cancelled_early =
        hooks.cancel && hooks.cancel->load(std::memory_order_relaxed);
    std::vector<const CalibratedScale *> models;
    std::vector<const VoltageVarianceModel *> scaleModels;
    if (!cancelled_early)
        models = calibratedScales(plan.spec);
    for (const CalibratedScale *cal : models)
        scaleModels.push_back(cal->model.get());
    result.calibrationMillis = millisSince(campaign_start);

    // A cell's estimated side depends on its trace and its scale's
    // nominal model only, never on the network it is measured against,
    // so it is computed once per (workload, core count) group, for all
    // scales in one pass over the trace; each cell then runs only its
    // own measured side.
    std::vector<GroupEstimate> groups(plan.workloadCount() *
                                      coreCounts.size());

    // The measured sides of a group's cells (scales x draws) are
    // independent recursions over the same trace, so they run in
    // chunks of at most simd::kMeasureLanes networks, one pass each.
    // Member j of a group (in submission order: scale-major, then
    // draw) belongs to chunk j mod chunks_per_group, so the first
    // cells submitted lead distinct chunks and workers do not queue on
    // one chunk's pass.
    const std::size_t draws = plan.spec.drawCount();
    const std::size_t group_cells = scales.size() * draws;
    const std::size_t chunks_per_group =
        (group_cells + simd::kMeasureLanes - 1) / simd::kMeasureLanes;
    std::vector<MeasureChunk> chunks(groups.size() * chunks_per_group);

    // Phase 3: the sweep itself. Cells are stored benchmark-major for
    // reporting but submitted in the plan's scale-major order, so the
    // first batch of tasks covers distinct benchmarks and primes the
    // trace cache before the sharing cells queue up behind it.
    std::optional<obs::ScopedTimer> sweep_phase;
    sweep_phase.emplace("campaign.sweep", obs::Histogram{}, nullptr,
                        "campaign");
    // Captured after the sweep span opens, so cell spans evaluated on
    // pool workers parent under it. Labels are precomputed per profile
    // (not per cell) and interned by ScopedTimer, so span creation on
    // the hot path does not allocate.
    const obs::TraceContext cell_context = obs::currentTraceContext();
    std::vector<std::string> cell_labels;
    cell_labels.reserve(plan.workloadCount());
    for (std::size_t pi = 0; pi < plan.workloadCount(); ++pi)
        cell_labels.push_back("cell " + plan.workloadName(pi));
    // Fill one chunk: build its members' networks and measure them in
    // one pass. A Monte Carlo draw perturbs the supply network only;
    // the trace and the calibrated variance model stay nominal, so the
    // per-draw spread measures chip yield and model robustness across
    // process corners at once.
    auto measureChunk = [&](std::size_t first, const CurrentTrace &trace,
                            AnalysisWorkspace &ws, MeasureChunk &chunk) {
        std::deque<SupplyNetwork> drawn; // stable addresses
        std::vector<const SupplyNetwork *> networks;
        for (std::size_t j = first; j < group_cells;
             j += chunks_per_group) {
            const std::size_t si = j / draws;
            if (!plan.spec.isMonteCarlo()) {
                networks.push_back(&models[si]->network);
                continue;
            }
            obs::ScopedTimer build("network.build", obs::Histogram{},
                                   nullptr, "power");
            SupplyNetworkConfig varied = drawSupplyConfig(
                setup_.supplyBase, plan.spec.variation(),
                deriveDrawSeed(plan.spec.mcSeed, j % draws));
            varied.impedanceScale = scales[si];
            networks.push_back(&drawn.emplace_back(varied));
        }
        chunk.sides.assign(networks.size(), EmergencyProfile{});
        measureTraceSides(trace, networks, plan.spec.lowThreshold,
                          plan.spec.highThreshold, ws, chunk.sides);
    };
    std::mutex progress_mutex;
    std::vector<std::future<void>> pending;
    std::vector<std::size_t> pendingCell; // submission order -> cell
    pending.reserve(plan.order.size());
    pendingCell.reserve(plan.order.size());
    for (const PlanCell &pc : plan.order) {
        const std::size_t ci = plan.storageIndex(pc);
        const std::size_t pi = pc.profileIndex;
        const std::size_t si = pc.scaleIndex;
        const std::size_t di = pc.drawIndex;
        const std::size_t cores = coreCounts[pc.coreIndex];
        // Identity fields are written on this thread before the task
        // runs, so even a task that faults before touching its cell
        // (e.g. an injected pool.task failure) leaves a fully
        // identified failed cell behind.
        CampaignCell &submitted = result.cells[ci];
        submitted.benchmark = plan.workloadName(pi);
        submitted.impedanceScale = scales[si];
        submitted.cores = cores;
        submitted.draw = di;
        if (cancelled_early) {
            submitted.failed = true;
            submitted.error = "interrupted before evaluation";
            campaignMetrics().cellsInterrupted.add(1);
            continue;
        }
        pendingCell.push_back(ci);
        const std::size_t group_index =
            pi * coreCounts.size() + pc.coreIndex;
        GroupEstimate *group = &groups[group_index];
        pending.push_back(pool_.submit([&, ci, pi, si, di, cores,
                                        group_index, group] {
            obs::ScopedTraceContext cell_scope(cell_context);
            obs::ScopedTimer span(cell_labels[pi],
                                  campaignMetrics().cellMs, nullptr,
                                  "campaign");
            campaignMetrics().cells.add(1);
            const Clock::time_point cell_start = Clock::now();
            CampaignCell &cell = result.cells[ci];
            try {
                if (hooks.cancel &&
                    hooks.cancel->load(std::memory_order_relaxed)) {
                    cell.failed = true;
                    cell.error = "interrupted before evaluation";
                    campaignMetrics().cellsInterrupted.add(1);
                } else {
                    const std::string key = cellKey(
                        plan.workloadName(pi), scales[si], cores, di,
                        plan.spec.isMonteCarlo());
                    if (DIDT_FAILPOINT_KEYED("campaign.cell", key))
                        throw std::runtime_error(
                            "injected fault (campaign.cell): " + key);
                    const TraceRequest request =
                        cellTraceRequest(plan.spec, pi, cores);
                    const std::shared_ptr<const CurrentTrace> trace =
                        repo_.get(request, &deltas[ci]);
                    const std::size_t wi = ThreadPool::workerIndex();
                    AnalysisWorkspace &ws =
                        workspaces_[wi == ThreadPool::kNotAWorker
                                        ? pool_.size()
                                        : wi];
                    obs::ScopedTimer profile_span("model.profile_trace",
                                                  obs::Histogram{},
                                                  nullptr, "core");
                    {
                        std::lock_guard<std::mutex> lock(group->mutex);
                        if (!group->done) {
                            group->sides.assign(scales.size(),
                                                EmergencyProfile{});
                            estimateTraceSides(
                                *trace, scaleModels,
                                plan.spec.lowThreshold,
                                plan.spec.highThreshold, ws,
                                group->sides, {},
                                plan.spec.useCorrelation);
                            group->done = true;
                            campaignMetrics().estimatePasses.add(1);
                        }
                    }
                    const std::size_t member = si * draws + di;
                    MeasureChunk &chunk =
                        chunks[group_index * chunks_per_group +
                               member % chunks_per_group];
                    {
                        std::lock_guard<std::mutex> lock(chunk.mutex);
                        if (!chunk.done) {
                            measureChunk(member % chunks_per_group, *trace,
                                         ws, chunk);
                            chunk.done = true;
                            campaignMetrics().measurePasses.add(1);
                        }
                    }
                    EmergencyProfile ep = group->sides[si];
                    const EmergencyProfile &measured =
                        chunk.sides[member / chunks_per_group];
                    ep.measuredBelow = measured.measuredBelow;
                    ep.measuredAbove = measured.measuredAbove;
                    ep.measuredVariance = measured.measuredVariance;
                    // The result JSON cannot carry a non-finite value
                    // (a supply scaled far out of range overflows the
                    // voltage), so such a cell fails with a reason.
                    for (const double value :
                         {ep.estimatedBelow, ep.measuredBelow,
                          ep.estimatedAbove, ep.measuredAbove,
                          ep.estimatedVariance, ep.measuredVariance})
                        if (!std::isfinite(value))
                            throw std::runtime_error(
                                "non-finite cell result");

                    cell.traceCycles = trace->size();
                    cell.windows = ep.windows;
                    cell.estimatedBelowPct = 100.0 * ep.estimatedBelow;
                    cell.measuredBelowPct = 100.0 * ep.measuredBelow;
                    cell.estimatedAbovePct = 100.0 * ep.estimatedAbove;
                    cell.measuredAbovePct = 100.0 * ep.measuredAbove;
                    cell.estimatedVariance = ep.estimatedVariance;
                    cell.measuredVariance = ep.measuredVariance;
                }
            } catch (const std::exception &e) {
                // A faulting cell is a result, not an abort: the rest
                // of the sweep keeps going and the failure lands in
                // the result JSON.
                cell.failed = true;
                cell.error = e.what();
                campaignMetrics().cellFailures.add(1);
            }
            cell.wallMillis = millisSince(cell_start);
            if (hooks.onCell) {
                std::lock_guard<std::mutex> lock(progress_mutex);
                hooks.onCell(cell);
            }
        }));
    }
    for (std::future<void> &f : pending)
        f.wait();
    for (std::size_t i = 0; i < pending.size(); ++i) {
        try {
            pending[i].get();
        } catch (const std::exception &e) {
            // The task itself faulted before the cell body's try block
            // (an injected pool.task fault): record it against the
            // right cell instead of aborting the campaign.
            CampaignCell &cell = result.cells[pendingCell[i]];
            if (!cell.failed) {
                cell.failed = true;
                cell.error = e.what();
                campaignMetrics().cellFailures.add(1);
            }
        }
    }
    sweep_phase.reset();

    // The result's cache section is the sum of what this run's cells
    // observed — for a fresh repository that equals the repository
    // totals; for the daemon's shared repository it is this request's
    // own traffic.
    for (const TraceCacheStats &delta : deltas)
        result.cacheStats += delta;
    result.interrupted =
        hooks.cancel && hooks.cancel->load(std::memory_order_relaxed);
    result.wallMillis = millisSince(campaign_start);
    return result;
}

} // namespace didt
