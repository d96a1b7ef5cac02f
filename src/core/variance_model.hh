/**
 * @file
 * The wavelet voltage-variance model (paper Section 4.1).
 *
 * Relates per-scale current variance (via Parseval over wavelet detail
 * coefficients) and adjacent-coefficient correlation (the pulse-
 * pattern detector) to the voltage variance the supply network will
 * produce, through per-scale multiplicative factors. Factors are
 * obtained exactly as the paper describes: "we performed a series of
 * experiments that allowed us to isolate the effects that wavelet
 * variance and correlation had on each detail scale level" — here, a
 * calibration pass regresses per-scale variance gains (with lag-1 and
 * lag-2 coefficient-correlation corrections) against the measured
 * voltage variance of training stimuli, either synthesized waveforms
 * (calibrate) or current traces of microbenchmarks running on the
 * processor model (calibrateOnTraces).
 */

#ifndef DIDT_CORE_VARIANCE_MODEL_HH
#define DIDT_CORE_VARIANCE_MODEL_HH

#include <cstddef>
#include <span>
#include <vector>

#include "power/supply_network.hh"
#include "stats/gaussian.hh"
#include "stats/running_stats.hh"
#include "util/rng.hh"
#include "util/simd.hh"
#include "wavelet/dwt.hh"
#include "wavelet/flat_decomposition.hh"
#include "wavelet/wavelet_stats.hh"

namespace didt
{

/** Per-window voltage estimate produced by the model. */
struct WindowEstimate
{
    Volt mean = 0.0;           ///< estimated voltage mean (IR drop)
    double variance = 0.0;     ///< estimated voltage variance
    /** Per-detail-level variance contribution (finest first), followed
     *  by the approximation level's contribution. */
    std::vector<double> contributions;

    /** Gaussian-model probability that the voltage is below @p level. */
    double probBelow(Volt level) const;

    /** Gaussian-model probability that the voltage is above @p level. */
    double probAbove(Volt level) const;
};

/**
 * Reusable scratch for the analysis pipeline (estimate, calibration,
 * trace profiling). All buffers grow to the high-water mark of the
 * windows they process and are then reused allocation-free, so one
 * workspace per worker thread makes the per-window hot path free of
 * heap traffic. Plain value type, owned by exactly one thread at a
 * time (see DESIGN.md section 10).
 *
 * The feature fields (stats, rho2, approxRho, windowMean) hold the
 * model-independent features of the last window passed to
 * VoltageVarianceModel::extractFeatures; apply() reads them.
 */
struct AnalysisWorkspace
{
    DwtWorkspace dwt;           ///< pyramid ping/pong scratch
    FlatDecomposition dec;      ///< per-window decomposition
    ScaleStats stats;           ///< subband variance and lag-1 rho
    std::vector<double> rho2;   ///< lag-2 rho per detail level
    double approxRho = 0.0;     ///< lag-1 rho of the approximation
    double windowMean = 0.0;    ///< mean current of the window
    WindowEstimate est;         ///< per-window estimate scratch
    /** Estimated-side accumulators, three per model (below, above,
     *  variance) of an estimateTraceSides() pass. */
    std::vector<RunningStats> sides;
    std::vector<char> selected; ///< detail-level selection mask
    std::vector<double> row;    ///< regression feature row
    CurrentTrace tiled;         ///< tiled calibration stimulus
    VoltageTrace voltage;       ///< supply-network response scratch
    /** measureTraceSides() lane descriptors and results. */
    std::vector<simd::BiquadLane> lanes;
    std::vector<simd::MeasuredLane> measured;
};

/** The calibrated per-scale variance-gain model. */
class VoltageVarianceModel
{
  public:
    /**
     * @param network supply network to model (kept by reference; must
     *        outlive this object)
     * @param window_length analysis window in cycles (paper: 256)
     * @param levels wavelet decomposition depth (paper: 8)
     * @param basis wavelet basis (paper: Haar; others for ablation)
     */
    VoltageVarianceModel(const SupplyNetwork &network,
                         std::size_t window_length = 256,
                         std::size_t levels = 8,
                         WaveletBasis basis = WaveletBasis::haar());

    /**
     * Calibrate the per-scale factors by least-squares regression on
     * an ensemble of processor-like stimuli (white issue noise, pulse
     * trains, steps, slow drifts) against the measured voltage
     * variance — the paper's "series of experiments".
     *
     * @param rng randomness for stimulus generation
     * @param samples_per_point scales the ensemble size (~50x this)
     */
    void calibrate(Rng &rng, std::size_t samples_per_point = 12);

    /**
     * Calibrate by regression on windows cut from the supplied current
     * traces (typically microbenchmarks run on the processor model, so
     * the training family matches real machine behaviour). Targets are
     * the exact steady-state voltage variances of each window.
     */
    void calibrateOnTraces(std::span<const CurrentTrace> traces);

    /**
     * Analytic fallback calibration: per-scale factor from the mean
     * squared impedance over the subband's frequency range, ignoring
     * the correlation term. Used as a baseline/ablation.
     */
    void calibrateAnalytic();

    /** True once either calibration has run. */
    bool calibrated() const { return calibrated_; }

    /**
     * Estimate the voltage distribution for one current window of
     * exactly windowLength() samples (paper Section 4.1 steps 1-5).
     *
     * @param window current samples
     * @param use_levels detail levels to include (empty = all); the
     *        approximation level is always included
     * @param use_correlation include the correlation adjustment
     */
    WindowEstimate estimate(std::span<const double> window,
                            std::span<const std::size_t> use_levels = {},
                            bool use_correlation = true) const;

    /**
     * In-place overload: write the estimate into @p out using @p ws
     * for all intermediate storage. Allocation-free once the workspace
     * has warmed up. Exactly extractFeatures() then apply().
     */
    void estimate(std::span<const double> window,
                  std::span<const std::size_t> use_levels,
                  bool use_correlation, WindowEstimate &out,
                  AnalysisWorkspace &ws) const;

    /**
     * The model-independent half of estimate(): the DWT of @p window,
     * its per-scale subband variance and lag-1 coefficient
     * correlation, the lag-2 correlation of each detail level, the
     * approximation's lag-1 correlation and the window mean, all into
     * @p ws. The result depends only on the window and the (basis,
     * window length, levels) geometry, so one extraction serves every
     * model of that geometry, whatever its supply network. Needs no
     * calibration. The correlations stay 0 when @p use_correlation is
     * false.
     */
    void extractFeatures(std::span<const double> window,
                         bool use_correlation, AnalysisWorkspace &ws) const;

    /**
     * The model-dependent half of estimate(): the IR-drop mean from
     * the window mean, and the sum of calibrated factor times subband
     * variance over the selected levels, from the features
     * extractFeatures() left in @p ws (by this model or by any model
     * of the same geometry).
     */
    void apply(std::span<const std::size_t> use_levels,
               bool use_correlation, WindowEstimate &out,
               AnalysisWorkspace &ws) const;

    /**
     * The @p k detail levels with the largest calibrated base factors
     * — the levels nearest the resonance, whose omission the paper
     * shows costs under ~1.6% (Figure 8).
     */
    std::vector<std::size_t> topLevels(std::size_t k) const;

    /** Analysis window length in cycles. */
    std::size_t windowLength() const { return window_; }

    /** Decomposition depth. */
    std::size_t levels() const { return levels_; }

    /** Wavelet basis of the decomposition. */
    const WaveletBasis &basis() const { return dwt_.basis(); }

    /** Base (rho = 0) variance gain of detail level @p j. */
    double baseFactor(std::size_t j) const;

    /** Mean training-set variance contribution of detail level @p j
     *  (0 for analytic calibration, which has no training set). */
    double meanContribution(std::size_t j) const;

  private:
    /** kappa_j = c0 + c1 rho1 + c2 rho2 (lag-1/lag-2 coefficient
     *  correlations), clamped at 0. */
    struct Factor
    {
        double c0 = 0.0;
        double c1 = 0.0;
        double c2 = 0.0;

        double at(double rho1, double rho2) const;
    };

    /** Accumulated normal equations for a factor regression. */
    struct Regression
    {
        std::vector<std::vector<double>> xtx;
        std::vector<double> xty;
        std::vector<double> colSum; ///< unweighted feature sums
        std::size_t rows = 0;
        std::size_t cols = 0;
        bool hasApprox = false;
    };

    /** extractFeatures() without the window mean (which calibration's
     *  regression rows do not use); leaves ws.windowMean as it was. */
    void extractScaleFeatures(std::span<const double> window,
                              bool use_correlation,
                              AnalysisWorkspace &ws) const;

    void beginRegression(Regression &reg) const;
    void accumulateWindow(Regression &reg, std::span<const double> signal,
                          AnalysisWorkspace &ws) const;
    void finishRegression(Regression &reg);

    const SupplyNetwork &network_;
    std::size_t window_;
    std::size_t levels_;
    Dwt dwt_;
    std::vector<Factor> detailFactors_; ///< one per detail level
    Factor approxFactor_;
    /** Mean per-level variance contribution over the training set;
     *  used by topLevels() to rank levels by real importance. */
    std::vector<double> meanContribution_;
    bool calibrated_ = false;

    /**
     * Measure the steady-state voltage variance produced by one
     * stimulus window: tile it periodically, convolve through the
     * network, and take the settled output variance. Tiling and the
     * network response live in @p ws.
     */
    double measureOutputVariance(std::span<const double> window_signal,
                                 AnalysisWorkspace &ws) const;
};

} // namespace didt

#endif // DIDT_CORE_VARIANCE_MODEL_HH
