/**
 * @file
 * Declarative experiment campaigns (paper Sections 4-5 sweeps).
 *
 * A campaign describes a full characterization sweep — a benchmark
 * set crossed with impedance scales under one analysis configuration.
 * Execution follows a request / plan / execute split: the spec is
 * materialized into a CampaignPlan (runner/plan.hh) and evaluated by
 * an Executor (runner/executor.hh) that owns the ThreadPool, pulls
 * every current trace through a shared TraceRepository (each distinct
 * workload simulated exactly once), and calibrates per-impedance-scale
 * variance models in parallel on a training set built once. Results
 * are deterministic: cell values depend only on the spec, never on
 * --jobs, scheduling order, or whether the batch CLI or the didt_serve
 * daemon ran them.
 */

#ifndef DIDT_RUNNER_CAMPAIGN_HH
#define DIDT_RUNNER_CAMPAIGN_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "power/variation.hh"
#include "runner/thread_pool.hh"
#include "runner/trace_repository.hh"
#include "util/types.hh"
#include "workload/profile.hh"

namespace didt
{

/** Declarative description of one characterization sweep. */
struct CampaignSpec
{
    /** Benchmarks to sweep (empty = all 26 SPEC 2000 profiles). */
    std::vector<BenchmarkProfile> profiles;

    /** Target-impedance scales (paper Section 4: 100%..150%). */
    std::vector<double> impedanceScales{1.0, 1.1, 1.2, 1.3, 1.5};

    /** Analysis window in cycles (paper: 256). */
    std::size_t windowLength = 256;

    /** Wavelet decomposition depth (paper: 8). */
    std::size_t levels = 8;

    /** Wavelet basis name for WaveletBasis::byName (paper: haar). */
    std::string basis = "haar";

    /** Low control point in volts (paper: 0.97). */
    Volt lowThreshold = 0.97;

    /** High control point in volts. */
    Volt highThreshold = 1.03;

    /** Include the correlation adjustment (Section 4.1). */
    bool useCorrelation = true;

    /** Dynamic instructions per benchmark. */
    std::uint64_t instructions = 120000;

    /** Extra workload seed. */
    std::uint64_t seed = 0;

    /** Warmup cycles trimmed from each trace. */
    std::size_t trimWarmup = 4096;

    /**
     * Chip sizes to sweep (empty = {1}, the uniprocessor). A cell with
     * cores > 1 simulates an N-core Chip: the benchmark (or mix) runs
     * on every core with deterministically derived per-core seeds, and
     * the analyzed trace is the aggregate chip current.
     */
    std::vector<std::size_t> coreCounts;

    /**
     * Workload mixes by name (see findMixByName). When non-empty the
     * mixes replace the benchmarks axis: each cell co-schedules one
     * mix across the cell's cores. When empty the benchmarks axis is
     * used (each benchmark cloned across cores when cores > 1).
     */
    std::vector<std::string> mixes;

    /** Shared-L2 banks for chip cells (power of two). */
    std::size_t l2Banks = 8;

    /** Bank-conflict penalty in cycles for chip cells. */
    std::size_t l2BankPenalty = 4;

    /**
     * SimPoint-style trace sampling (sim/sampling.hh), applied to
     * every cell's simulation. sampleSkip == 0 (the default) keeps the
     * historical full-detail behaviour — and the historical JSON
     * bytes, cache keys, and disk files. sampleSkip > 0 requires
     * sampleDetail > 0 and sampleWarmup <= sampleSkip.
     */
    Cycle sampleDetail = 0;   ///< detailed cycles per window
    Cycle sampleSkip = 0;     ///< skipped cycles between windows
    Cycle sampleWarmup = 512; ///< detailed refill tail of each skip

    /**
     * Variation-aware Monte Carlo (power/variation.hh). mcDraws == 0
     * (the default) is the nominal path: one cell per (workload,
     * cores, scale) against the calibrated network, byte-identical to
     * the historical JSON. mcDraws > 0 fans every (workload, cores,
     * scale) cell into mcDraws supply-network draws — first-class
     * cells with deterministic splitmix64-derived seeds
     * (deriveDrawSeed(mcSeed, draw)) — and the result JSON gains a
     * per-group yield-curve aggregation. Draws vary only the supply
     * network, so all draws of one workload share one simulated trace,
     * and each scale's variance model stays the nominal calibration
     * (the spread therefore measures both chip yield and model
     * robustness across corners).
     */
    std::size_t mcDraws = 0;      ///< draws per cell (0 = MC off)
    std::uint64_t mcSeed = 0;     ///< campaign-level Monte Carlo seed
    double mcSigmaR = 0.0;        ///< lognormal sigma on DC resistance
    double mcSigmaResonance = 0.0; ///< relative sigma on resonance
    double mcSigmaQ = 0.0;        ///< lognormal sigma on quality factor

    /** The profiles list with the all-SPEC default applied. */
    const std::vector<BenchmarkProfile> &effectiveProfiles() const;

    /** The core-count list with the uniprocessor default applied. */
    const std::vector<std::size_t> &effectiveCoreCounts() const;

    /** True when any spec dimension needs the chip path. */
    bool isChipSweep() const;

    /**
     * The one spec check, shared by the JSON spec parser, the
     * command-line spec builders and Executor::run: at least one
     * impedance scale, each finite and positive; a positive window
     * that 2^levels divides, 1 <= levels < 64; a known basis;
     * lowThreshold < highThreshold; benchmarks and mixes not both set;
     * a power-of-two bank count; consistent sampling windows; at most
     * 100000 Monte Carlo draws with sigmas in [0, 1]. Fills @p error
     * and returns false when the spec is rejected, so no spec starts
     * running that cannot finish.
     */
    bool validate(std::string *error) const;

    /** True when trace sampling is active. */
    bool isSampled() const { return sampleSkip > 0; }

    /** True when the Monte Carlo draw axis is active. */
    bool isMonteCarlo() const { return mcDraws > 0; }

    /** Cells per (workload, cores, scale) group: max(mcDraws, 1). */
    std::size_t drawCount() const { return mcDraws > 0 ? mcDraws : 1; }

    /** The variation sigmas as a power/variation.hh spec. */
    SupplyVariationSpec variation() const
    {
        return SupplyVariationSpec{mcSigmaR, mcSigmaResonance, mcSigmaQ};
    }
};

/** One (benchmark, impedance scale) cell of a campaign. */
struct CampaignCell
{
    std::string benchmark;       ///< profile (or mix) name
    double impedanceScale = 1.0; ///< network scale for this cell
    std::size_t cores = 1;       ///< chip size simulated for this cell
    std::size_t draw = 0;        ///< Monte Carlo draw index (MC only)
    std::size_t traceCycles = 0; ///< trace length analyzed
    std::size_t windows = 0;     ///< analysis windows profiled

    double estimatedBelowPct = 0.0; ///< model % cycles below low point
    double measuredBelowPct = 0.0;  ///< measured % below low point
    double estimatedAbovePct = 0.0; ///< model % above high point
    double measuredAbovePct = 0.0;  ///< measured % above high point
    double estimatedVariance = 0.0; ///< mean estimated voltage variance
    double measuredVariance = 0.0;  ///< measured voltage variance

    /**
     * True when this cell's evaluation threw (disk fault, injected
     * failpoint, ...). The campaign records the failure and keeps
     * going; benchmark/impedanceScale stay valid, the measurements are
     * zero, and @ref error says what happened.
     */
    bool failed = false;

    /** Failure description when failed (deterministic text). */
    std::string error;

    /** Wall-clock of this cell's analysis (excluded from the
     *  deterministic JSON body). */
    double wallMillis = 0.0;
};

/** Everything a finished campaign produced. */
struct CampaignResult
{
    CampaignSpec spec;               ///< the sweep that ran
    std::vector<CampaignCell> cells; ///< benchmark-major, scale-minor

    /**
     * Trace-cache traffic attributable to this run: the sum over its
     * cells of what each cell's repository lookup observed. For a
     * fresh repository this equals the repository totals; against a
     * shared repository (the didt_serve daemon) it is this run's own
     * contribution.
     */
    TraceCacheStats cacheStats;

    std::size_t jobs = 1;            ///< worker threads used
    double wallMillis = 0.0;         ///< end-to-end wall clock
    double calibrationMillis = 0.0;  ///< training + model calibration

    /** True when a cancellation flag cut the run short; the skipped
     *  cells are marked failed with an "interrupted" error. */
    bool interrupted = false;

    /** RMS of (estimated - measured) emergency percentage, over the
     *  cells that completed (failed cells carry no measurements). */
    double rmsEstimationErrorPct() const;

    /** Number of cells that failed instead of completing. */
    std::size_t failedCells() const;
};

/**
 * Run a characterization campaign. Convenience wrapper that builds a
 * CampaignPlan (runner/plan.hh) and evaluates it on a one-shot
 * Executor (runner/executor.hh); long-lived consumers such as the
 * didt_serve daemon use those pieces directly so requests share one
 * pool, calibration cache, and trace repository.
 *
 * @param setup experiment environment (shared, read-only)
 * @param spec the sweep description
 * @param repo trace store shared by all cells (and, with a cache
 *        directory, across campaign invocations)
 * @param jobs worker threads (0 = hardware concurrency)
 * @param on_cell optional progress callback, invoked from worker
 *        threads as cells finish (serialized by the campaign)
 * @param cancel optional cooperative cancellation flag: once true,
 *        cells that have not started are marked failed/"interrupted"
 *        instead of evaluated (graceful SIGINT/SIGTERM drain)
 */
CampaignResult
runCharacterizationCampaign(const ExperimentSetup &setup,
                            const CampaignSpec &spec,
                            TraceRepository &repo, std::size_t jobs = 0,
                            const std::function<void(const CampaignCell &)>
                                &on_cell = {},
                            const std::atomic<bool> *cancel = nullptr);

/**
 * Generic campaign fan-out for sweeps whose cells are not emergency
 * characterizations (e.g. closed-loop scheme comparisons): evaluate
 * @p cell(i) for i in [0, count) on @p jobs workers and return results
 * in index order. Exceptions from any cell propagate to the caller.
 */
template <typename R>
std::vector<R>
runCampaignCells(std::size_t count, std::size_t jobs,
                 const std::function<R(std::size_t)> &cell)
{
    std::vector<R> results(count);
    ThreadPool pool(jobs);
    pool.parallelFor(count, [&](std::size_t i) { results[i] = cell(i); });
    return results;
}

} // namespace didt

#endif // DIDT_RUNNER_CAMPAIGN_HH
