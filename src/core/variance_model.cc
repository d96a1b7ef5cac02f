#include "core/variance_model.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

#include "obs/scoped_timer.hh"
#include "stats/running_stats.hh"
#include "util/logging.hh"
#include "wavelet/subband.hh"
#include "wavelet/wavelet_stats.hh"

namespace didt
{

namespace
{

/**
 * Solve the dense system A x = b by Gaussian elimination with partial
 * pivoting and a small ridge term for stability. Destroys @p a and
 * @p b (callers pass regression accumulators they no longer need, so
 * nothing is copied).
 */
std::vector<double>
solveDense(std::vector<std::vector<double>> &a, std::vector<double> &b)
{
    const std::size_t n = a.size();
    for (std::size_t i = 0; i < n; ++i)
        a[i][i] += 1e-9 * (1.0 + a[i][i]);
    for (std::size_t col = 0; col < n; ++col) {
        std::size_t pivot = col;
        for (std::size_t row = col + 1; row < n; ++row)
            if (std::fabs(a[row][col]) > std::fabs(a[pivot][col]))
                pivot = row;
        std::swap(a[col], a[pivot]);
        std::swap(b[col], b[pivot]);
        if (std::fabs(a[col][col]) < 1e-18)
            didt_panic("singular system in ensemble regression");
        for (std::size_t row = col + 1; row < n; ++row) {
            const double f = a[row][col] / a[col][col];
            for (std::size_t k = col; k < n; ++k)
                a[row][k] -= f * a[col][k];
            b[row] -= f * b[col];
        }
    }
    std::vector<double> x(n, 0.0);
    for (std::size_t row = n; row-- > 0;) {
        double acc = b[row];
        for (std::size_t k = row + 1; k < n; ++k)
            acc -= a[row][k] * x[k];
        x[row] = acc / a[row][row];
    }
    return x;
}

} // namespace

double
WindowEstimate::probBelow(Volt level) const
{
    const Gaussian model(mean, std::sqrt(std::max(0.0, variance)));
    return model.cdf(level);
}

double
WindowEstimate::probAbove(Volt level) const
{
    const Gaussian model(mean, std::sqrt(std::max(0.0, variance)));
    return model.tail(level);
}

double
VoltageVarianceModel::Factor::at(double rho1, double rho2) const
{
    return std::max(0.0, c0 + c1 * rho1 + c2 * rho2);
}

VoltageVarianceModel::VoltageVarianceModel(const SupplyNetwork &network,
                                           std::size_t window_length,
                                           std::size_t levels,
                                           WaveletBasis basis)
    : network_(network),
      window_(window_length),
      levels_(levels),
      dwt_(std::move(basis))
{
    if (levels_ == 0)
        didt_fatal("VoltageVarianceModel needs at least one level");
    if (window_ % (std::size_t(1) << levels_) != 0)
        didt_fatal("window length ", window_, " not divisible by 2^",
                   levels_);
    detailFactors_.assign(levels_, Factor{});
}

double
VoltageVarianceModel::measureOutputVariance(
    std::span<const double> window_signal, AnalysisWorkspace &ws) const
{
    // Tile the window so the convolution reaches its periodic steady
    // state, then measure output variance over the settled portion.
    constexpr std::size_t kTiles = 6;
    constexpr std::size_t kSettleTiles = 2;
    ws.tiled.clear();
    ws.tiled.reserve(window_signal.size() * kTiles);
    for (std::size_t t = 0; t < kTiles; ++t)
        ws.tiled.insert(ws.tiled.end(), window_signal.begin(),
                        window_signal.end());

    network_.computeVoltageInto(ws.tiled, ws.voltage);
    RunningStats out_stats;
    for (std::size_t n = kSettleTiles * window_signal.size();
         n < ws.voltage.size(); ++n)
        out_stats.push(ws.voltage[n]);
    return out_stats.variance();
}

void
VoltageVarianceModel::calibrate(Rng &rng, std::size_t samples_per_point)
{
    // "We performed a series of experiments that allowed us to isolate
    // the effects that wavelet variance and correlation had on each
    // detail scale level" (paper Section 4.1): drive the network with
    // an ensemble of processor-like stimuli — white issue noise, pulse
    // trains of varying period/duty (the stall/burst patterns real
    // pipelines produce), steps, and slow phase drifts — and fit the
    // per-level multiplicative factors kappa_j(rho) = a_j + b_j rho by
    // least squares against the measured voltage variance.
    const std::size_t samples = std::max<std::size_t>(200,
                                                      samples_per_point * 50);
    Regression reg;
    beginRegression(reg);
    AnalysisWorkspace ws;
    std::vector<double> signal;

    const double resonant_period =
        network_.config().clockHz / network_.resonantFrequency();

    for (std::size_t s = 0; s < samples; ++s) {
        // --- synthesize one stimulus window ------------------------------
        signal.assign(window_, 40.0);

        if (rng.bernoulli(0.25)) {
            // Clean resonance-locked square wave: the coherent case a
            // dI/dt stressor produces, which noisy mixtures cannot pin.
            const double period =
                resonant_period * rng.uniform(0.85, 1.15);
            const double amp = rng.uniform(10.0, 40.0);
            const double phase = rng.uniform(0.0, period);
            for (std::size_t n = 0; n < window_; ++n) {
                const double pos =
                    std::fmod(static_cast<double>(n) + phase, period);
                signal[n] += pos < period / 2.0 ? amp : 0.0;
            }
            accumulateWindow(reg, signal, ws);
            continue;
        }

        const double noise_sd = rng.uniform(0.5, 12.0);
        for (auto &x : signal)
            x += rng.normal(0.0, noise_sd);

        const int trains = static_cast<int>(rng.uniformInt(3)); // 0,1,2
        for (int p = 0; p < trains; ++p) {
            const double period = rng.uniform(8.0, 96.0);
            const double duty = rng.uniform(0.1, 0.6);
            const double amp = rng.uniform(5.0, 45.0);
            const double phase = rng.uniform(0.0, period);
            for (std::size_t n = 0; n < window_; ++n) {
                const double pos =
                    std::fmod(static_cast<double>(n) + phase, period);
                if (pos < duty * period)
                    signal[n] += amp;
            }
        }
        if (rng.bernoulli(0.3)) {
            const std::size_t at = rng.uniformInt(window_);
            const double height = rng.uniform(-20.0, 20.0);
            for (std::size_t n = at; n < window_; ++n)
                signal[n] += height;
        }
        if (rng.bernoulli(0.3)) {
            const double period = rng.uniform(100.0, 1000.0);
            const double amp = rng.uniform(5.0, 25.0);
            for (std::size_t n = 0; n < window_; ++n)
                signal[n] += amp * std::sin(2.0 * M_PI *
                                            static_cast<double>(n) / period);
        }
        for (auto &x : signal)
            x = std::max(0.0, x);

        accumulateWindow(reg, signal, ws);
    }

    finishRegression(reg);
}

void
VoltageVarianceModel::calibrateOnTraces(std::span<const CurrentTrace> traces)
{
    obs::ScopedTimer span("model.calibrate_on_traces", obs::Histogram{},
                          nullptr, "core");
    Regression reg;
    beginRegression(reg);
    AnalysisWorkspace ws;
    std::size_t windows = 0;
    for (const CurrentTrace &trace : traces) {
        const std::span<const double> samples(trace.data(), trace.size());
        for (std::size_t off = 0; off + window_ <= trace.size();
             off += window_) {
            accumulateWindow(reg, samples.subspan(off, window_), ws);
            ++windows;
        }
    }
    if (windows < 16)
        didt_fatal("calibrateOnTraces needs at least 16 windows, got ",
                   windows);
    finishRegression(reg);
}

void
VoltageVarianceModel::beginRegression(Regression &reg) const
{
    reg.hasApprox = (window_ >> levels_) >= 2;
    reg.cols = 3 * levels_ + (reg.hasApprox ? 2 : 0);
    reg.xtx.assign(reg.cols, std::vector<double>(reg.cols, 0.0));
    reg.xty.assign(reg.cols, 0.0);
    reg.colSum.assign(reg.cols, 0.0);
    reg.rows = 0;
}

void
VoltageVarianceModel::accumulateWindow(Regression &reg,
                                       std::span<const double> signal,
                                       AnalysisWorkspace &ws) const
{
    // The regression needs the per-scale features only; the window
    // mean feeds apply()'s IR-drop term, never a row.
    extractScaleFeatures(signal, true, ws);
    std::vector<double> &row = ws.row;
    row.assign(reg.cols, 0.0);
    for (std::size_t j = 0; j < levels_; ++j) {
        row[3 * j] = ws.stats.subbandVariance[j];
        row[3 * j + 1] =
            ws.stats.adjacentCorrelation[j] * ws.stats.subbandVariance[j];
        row[3 * j + 2] = ws.rho2[j] * ws.stats.subbandVariance[j];
    }
    if (reg.hasApprox) {
        row[3 * levels_] = ws.stats.approximationVariance;
        row[3 * levels_ + 1] =
            ws.approxRho * ws.stats.approximationVariance;
    }
    const double y = measureOutputVariance(signal, ws);
    if (y <= 0.0)
        return;

    // Weight for relative error so quiet broadband windows count as
    // much as loud resonant ones.
    const double w = 1.0 / (y * y);
    for (std::size_t p = 0; p < reg.cols; ++p) {
        for (std::size_t q = 0; q < reg.cols; ++q)
            reg.xtx[p][q] += w * row[p] * row[q];
        reg.xty[p] += w * row[p] * y;
        reg.colSum[p] += row[p];
    }
    ++reg.rows;
}

void
VoltageVarianceModel::finishRegression(Regression &reg)
{
    const std::vector<double> coeff = solveDense(reg.xtx, reg.xty);
    meanContribution_.assign(levels_, 0.0);
    const auto rows = static_cast<double>(std::max<std::size_t>(1, reg.rows));
    for (std::size_t j = 0; j < levels_; ++j) {
        detailFactors_[j] = Factor{std::max(0.0, coeff[3 * j]),
                                   coeff[3 * j + 1], coeff[3 * j + 2]};
        meanContribution_[j] =
            std::max(0.0, (coeff[3 * j] * reg.colSum[3 * j] +
                           coeff[3 * j + 1] * reg.colSum[3 * j + 1] +
                           coeff[3 * j + 2] * reg.colSum[3 * j + 2]) /
                              rows);
    }
    if (reg.hasApprox)
        approxFactor_ = Factor{std::max(0.0, coeff[3 * levels_]),
                               coeff[3 * levels_ + 1], 0.0};
    else
        approxFactor_ = Factor{};

    calibrated_ = true;
}

void
VoltageVarianceModel::calibrateAnalytic()
{
    const Hertz clock = network_.config().clockHz;
    constexpr std::size_t kProbes = 64;
    for (std::size_t j = 0; j < levels_; ++j) {
        const SubbandFrequency band = detailBandFrequency(j, clock);
        double acc = 0.0;
        for (std::size_t p = 0; p < kProbes; ++p) {
            const double f =
                band.lowHz + (band.highHz - band.lowHz) *
                                 (static_cast<double>(p) + 0.5) /
                                 static_cast<double>(kProbes);
            const double z = network_.impedanceAt(f);
            acc += z * z;
        }
        detailFactors_[j] = Factor{acc / static_cast<double>(kProbes), 0.0,
                                   0.0};
    }
    // Approximation band: DC up to the coarsest detail band's lower edge.
    const double f_hi = clock / static_cast<double>(
                                    std::size_t(1) << (levels_ + 1));
    double acc = 0.0;
    for (std::size_t p = 0; p < kProbes; ++p) {
        const double f = f_hi * (static_cast<double>(p) + 0.5) /
                         static_cast<double>(kProbes);
        const double z = network_.impedanceAt(f);
        acc += z * z;
    }
    approxFactor_ = Factor{acc / static_cast<double>(kProbes), 0.0, 0.0};
    meanContribution_.clear(); // no training set: rank by base factor
    calibrated_ = true;
}

WindowEstimate
VoltageVarianceModel::estimate(std::span<const double> window,
                               std::span<const std::size_t> use_levels,
                               bool use_correlation) const
{
    WindowEstimate est;
    AnalysisWorkspace ws;
    estimate(window, use_levels, use_correlation, est, ws);
    return est;
}

void
VoltageVarianceModel::estimate(std::span<const double> window,
                               std::span<const std::size_t> use_levels,
                               bool use_correlation, WindowEstimate &out,
                               AnalysisWorkspace &ws) const
{
    extractFeatures(window, use_correlation, ws);
    apply(use_levels, use_correlation, out, ws);
}

void
VoltageVarianceModel::extractFeatures(std::span<const double> window,
                                      bool use_correlation,
                                      AnalysisWorkspace &ws) const
{
    extractScaleFeatures(window, use_correlation, ws);
    RunningStats mean_stats;
    for (double x : window)
        mean_stats.push(x);
    ws.windowMean = mean_stats.mean();
}

void
VoltageVarianceModel::extractScaleFeatures(std::span<const double> window,
                                           bool use_correlation,
                                           AnalysisWorkspace &ws) const
{
    if (window.size() != window_)
        didt_panic("estimate() expects ", window_, " samples, got ",
                   window.size());

    dwt_.forward(window, levels_, ws.dec, ws.dwt);
    computeScaleStats(ws.dec, ws.stats);
    ws.rho2.assign(levels_, 0.0);
    ws.approxRho = 0.0;
    if (use_correlation) {
        for (std::size_t j = 0; j < levels_; ++j)
            ws.rho2[j] = lagAutocorrelation(ws.dec.detail(j), 2);
        if (ws.dec.approximation().size() >= 2)
            ws.approxRho = lag1Autocorrelation(ws.dec.approximation());
    }
}

void
VoltageVarianceModel::apply(std::span<const std::size_t> use_levels,
                            bool use_correlation, WindowEstimate &out,
                            AnalysisWorkspace &ws) const
{
    if (!calibrated_)
        didt_panic("VoltageVarianceModel::estimate before calibration");

    ws.selected.assign(levels_, use_levels.empty() ? 1 : 0);
    for (std::size_t j : use_levels) {
        if (j >= levels_)
            didt_panic("estimate(): level ", j, " out of range");
        ws.selected[j] = 1;
    }

    out.contributions.assign(levels_ + 1, 0.0);
    out.mean = network_.steadyStateVoltage(ws.windowMean);

    double total = 0.0;
    for (std::size_t j = 0; j < levels_; ++j) {
        if (!ws.selected[j])
            continue;
        const double rho1 =
            use_correlation ? ws.stats.adjacentCorrelation[j] : 0.0;
        const double rho2 = use_correlation ? ws.rho2[j] : 0.0;
        const double contribution =
            detailFactors_[j].at(rho1, rho2) * ws.stats.subbandVariance[j];
        out.contributions[j] = contribution;
        total += contribution;
    }
    if ((window_ >> levels_) >= 2) {
        const double rho = use_correlation ? ws.approxRho : 0.0;
        const double contribution =
            approxFactor_.at(rho, 0.0) * ws.stats.approximationVariance;
        out.contributions[levels_] = contribution;
        total += contribution;
    }
    out.variance = total;
}

std::vector<std::size_t>
VoltageVarianceModel::topLevels(std::size_t k) const
{
    // Rank by mean training-set contribution when available (trace or
    // ensemble calibration); otherwise fall back to the base factor.
    std::vector<std::size_t> order(levels_);
    std::iota(order.begin(), order.end(), 0);
    const bool have_contrib = !meanContribution_.empty();
    std::stable_sort(order.begin(), order.end(),
                     [this, have_contrib](std::size_t a, std::size_t b) {
                         if (have_contrib)
                             return meanContribution_[a] >
                                    meanContribution_[b];
                         return detailFactors_[a].c0 > detailFactors_[b].c0;
                     });
    order.resize(std::min(k, order.size()));
    std::sort(order.begin(), order.end());
    return order;
}

double
VoltageVarianceModel::meanContribution(std::size_t j) const
{
    if (j >= levels_)
        didt_panic("meanContribution: level ", j, " out of range");
    return j < meanContribution_.size() ? meanContribution_[j] : 0.0;
}

double
VoltageVarianceModel::baseFactor(std::size_t j) const
{
    if (j >= levels_)
        didt_panic("baseFactor: level ", j, " out of range");
    return detailFactors_[j].c0;
}

} // namespace didt
