/**
 * @file
 * Ablation: decimated DWT vs maximal-overlap (undecimated) transform
 * as the front end of the per-scale variance estimator.
 *
 * The paper's reference [19] (Serroukh, Walden & Percival) defines the
 * wavelet variance estimator on the MODWT, which is shift-invariant;
 * the paper itself uses the decimated DWT for cheapness. This bench
 * quantifies the trade: estimator jitter (standard deviation of the
 * resonant-level variance estimate across overlapping window offsets
 * of the same stationary stretch) and cost (coefficients touched per
 * window).
 */

#include <cmath>

#include "bench_common.hh"

using namespace didt;

int
main(int argc, char **argv)
{
    Options opts;
    bench::declareCommonOptions(opts);
    opts.declare("benchmark", "mgrid", "benchmark supplying the trace");
    opts.parse(argc, argv);

    const ExperimentSetup setup = makeStandardSetup();
    bench::banner(setup);

    const CurrentTrace trace = benchmarkCurrentTrace(
        setup, profileByName(opts.get("benchmark")),
        static_cast<std::uint64_t>(opts.getInt("instructions")),
        static_cast<std::uint64_t>(opts.getInt("seed")));

    const Dwt dwt(WaveletBasis::haar());
    const Modwt modwt(WaveletBasis::haar());
    constexpr std::size_t kWindow = 256;
    constexpr std::size_t kLevels = 8;
    constexpr std::size_t kResonantLevel = 3; // 94-188 MHz at 3 GHz

    // Slide a window through a fixed stretch one cycle at a time; a
    // perfectly shift-invariant estimator would report a smoothly
    // varying value, the decimated DWT jitters with grid alignment.
    const std::size_t base = trace.size() / 2;
    RunningStats dwt_est;
    RunningStats modwt_est;
    const std::span<const double> samples(trace.data(), trace.size());
    ScaleStats stats;
    for (std::size_t shift = 0; shift < 128; ++shift) {
        const auto window = samples.subspan(base + shift, kWindow);
        computeScaleStats(dwt.forward(window, kLevels), stats);
        dwt_est.push(stats.subbandVariance[kResonantLevel]);
        const auto nu = modwt.waveletVariance(window, kLevels);
        modwt_est.push(nu[kResonantLevel]);
    }

    Table table({"estimator", "mean_level3_var", "stddev_across_shifts",
                 "relative_jitter", "coeffs_per_window"});
    table.newRow();
    table.add("DWT (paper)");
    table.add(dwt_est.mean(), 2);
    table.add(dwt_est.stddev(), 2);
    table.add(dwt_est.mean() > 0 ? dwt_est.stddev() / dwt_est.mean() : 0.0,
              3);
    table.add(static_cast<long long>(kWindow));
    table.newRow();
    table.add("MODWT (Percival)");
    table.add(modwt_est.mean(), 2);
    table.add(modwt_est.stddev(), 2);
    table.add(modwt_est.mean() > 0
                  ? modwt_est.stddev() / modwt_est.mean()
                  : 0.0,
              3);
    table.add(static_cast<long long>(kWindow * kLevels));
    bench::emit(table, opts,
                "Ablation: DWT vs MODWT variance estimator stability");
    std::printf("reading: the MODWT estimate is smoother under window "
                "shifts but touches %zux more\ncoefficients — the "
                "cheap decimated DWT is the right choice for the "
                "paper's profiling pass.\n",
                static_cast<std::size_t>(kLevels));
    return 0;
}
