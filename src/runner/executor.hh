/**
 * @file
 * Campaign executor: the "pool + repository + metrics" half of the
 * request / plan / execute split.
 *
 * An Executor owns the worker pool, the per-worker analysis
 * workspaces, and a cache of calibrated variance models, and evaluates
 * CampaignPlans against a shared TraceRepository. It is long-lived by
 * design: the didt_serve daemon keeps one Executor for its whole
 * lifetime so every request reuses the same threads, workspaces,
 * calibrated models, and trace cache, while batch didt_campaign builds
 * one per invocation. Both paths produce byte-identical result JSON
 * for identical specs because cell values depend only on the spec —
 * never on scheduling, sharing, or which entry point asked.
 *
 * Analysis split: a cell's estimated side (the wavelet features of
 * its trace's windows, applied to the calibrated model of its scale)
 * depends on the trace and the nominal model only. run() computes it
 * once per (workload, core count) group, for every scale of the plan
 * in one pass over the trace, in the first cell of the group that has
 * its trace. The cells' measured sides (the convolution of the trace
 * through each cell's network) run in chunks of up to
 * simd::kMeasureLanes networks, one pass over the trace per chunk and
 * one network per SIMD lane, led by the chunk's first member to run.
 * Monte Carlo draws perturb the measured side's network alone and
 * never touch the estimated side, so a draw costs one lane of a
 * convolution pass, not a re-analysis.
 *
 * Calibration caching: the training trace set depends only on the
 * experiment setup and is built once per executor; calibrated models
 * are memoized by (impedance scale, window, levels, basis), so a
 * daemon serving many requests with the paper's standard analysis
 * configuration calibrates each scale exactly once. Calibration is
 * deterministic, so a cached model is bit-identical to a fresh one.
 *
 * run() is safe to call from multiple threads; cells from concurrent
 * runs interleave on the shared pool. Each worker owns one workspace,
 * and a worker evaluates one cell at a time, so workspace reuse across
 * concurrent runs is race-free.
 */

#ifndef DIDT_RUNNER_EXECUTOR_HH
#define DIDT_RUNNER_EXECUTOR_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "core/experiment.hh"
#include "core/variance_model.hh"
#include "obs/trace_event.hh"
#include "runner/plan.hh"
#include "runner/thread_pool.hh"
#include "runner/trace_repository.hh"

namespace didt
{

/** Optional observers and controls for one Executor::run call. */
struct ExecutionHooks
{
    /** Invoked (serialized) from worker threads as cells finish. */
    std::function<void(const CampaignCell &)> onCell;

    /**
     * Cooperative cancellation: when set and true, cells that have not
     * started are marked failed with an "interrupted" error instead of
     * being evaluated; in-flight cells finish normally. Used for
     * graceful SIGINT/SIGTERM drain.
     */
    const std::atomic<bool> *cancel = nullptr;

    /**
     * When non-null, resized to the plan's cell count and filled with
     * each cell's trace-cache contribution (indexed like
     * CampaignResult::cells). Lets the daemon attribute shared-cache
     * traffic to the requests of a merged batch.
     */
    std::vector<TraceCacheStats> *cellCacheDeltas = nullptr;

    /**
     * Trace context the run's spans attach under. run() installs it on
     * the calling thread and re-applies it inside pool workers, so the
     * sweep/cell spans of a served campaign nest under the daemon's
     * batch span (and carry its request/batch labels) even though they
     * execute on pool threads. Default: root, unattributed — the batch
     * CLI's flat layout.
     */
    obs::TraceContext traceContext;
};

/** Long-lived campaign execution engine (pool + repo + calibration). */
class Executor
{
  public:
    /**
     * @param setup experiment environment (kept by reference)
     * @param repo shared trace store (kept by reference)
     * @param jobs worker threads (0 = hardware concurrency)
     */
    Executor(const ExperimentSetup &setup, TraceRepository &repo,
             std::size_t jobs = 0);

    Executor(const Executor &) = delete;
    Executor &operator=(const Executor &) = delete;

    /** Evaluate every cell of @p plan; see runCharacterizationCampaign
     *  for the result contract. A cell whose values are not finite is
     *  a failed cell. @throws std::invalid_argument when the plan's
     *  spec fails CampaignSpec::validate. */
    CampaignResult run(const CampaignPlan &plan,
                       const ExecutionHooks &hooks = {});

    /** Worker threads in the pool. */
    std::size_t jobs() const { return pool_.size(); }

    /** The shared trace repository. */
    TraceRepository &repository() { return repo_; }

    /** The experiment environment plans run in. */
    const ExperimentSetup &setup() const { return setup_; }

    /** Calibrated models currently memoized (for telemetry/tests). */
    std::size_t cachedModels() const;

  private:
    /** One memoized calibration: the network must outlive the model
     *  that references it, so they live and die together. */
    struct CalibratedScale
    {
        explicit CalibratedScale(SupplyNetwork net)
            : network(std::move(net))
        {
        }
        SupplyNetwork network;
        std::unique_ptr<VoltageVarianceModel> model;
    };

    /** (scale bit pattern, window, levels, basis name). */
    using ModelKey =
        std::tuple<std::uint64_t, std::size_t, std::size_t, std::string>;

    /** Training traces, built on first use (pool-parallel). */
    const std::vector<CurrentTrace> &trainingTraces();

    /**
     * Calibrated models for the plan's scales, in scale order. Missing
     * entries are calibrated in parallel; cached entries are returned
     * as-is. Returned pointers stay valid for the executor's lifetime.
     */
    std::vector<const CalibratedScale *>
    calibratedScales(const CampaignSpec &spec);

    const ExperimentSetup &setup_;
    TraceRepository &repo_;
    ThreadPool pool_;
    /** One workspace per worker plus one for non-worker threads. */
    std::vector<AnalysisWorkspace> workspaces_;

    std::mutex trainingMutex_;
    bool trainingBuilt_ = false;
    std::vector<CurrentTrace> training_;

    mutable std::mutex modelsMutex_;
    std::map<ModelKey, std::unique_ptr<CalibratedScale>> models_;
};

} // namespace didt

#endif // DIDT_RUNNER_EXECUTOR_HH
