/**
 * @file
 * Example: offline dI/dt characterization of a workload
 * (paper Section 4 end to end).
 *
 * Given a benchmark name, this program:
 *   1. runs it on the Table-1 machine and collects the current trace,
 *   2. classifies execution windows with the chi-square Gaussian test,
 *   3. decomposes the trace into wavelet subbands and reports where
 *      the current energy lives relative to the supply resonance,
 *   4. estimates voltage-emergency exposure with the calibrated
 *      wavelet variance model and compares it against the measured
 *      (convolved) voltage.
 *
 * Usage: characterize_workload [--benchmark mgrid] [--impedance 1.5]
 */

#include <cstdio>
#include <iostream>

#include "didt/didt.hh"

int
main(int argc, char **argv)
{
    using namespace didt;

    Options opts;
    opts.declare("benchmark", "mgrid", "SPEC benchmark to characterize");
    opts.declare("instructions", "120000", "dynamic instructions");
    opts.declare("impedance", "1.5", "target-impedance scale");
    opts.parse(argc, argv);

    const ExperimentSetup setup = makeStandardSetup();
    const BenchmarkProfile &bench = profileByName(opts.get("benchmark"));
    const SupplyNetwork network =
        setup.makeNetwork(opts.getDouble("impedance"));

    std::printf("== %s on the Table-1 machine, %sx target impedance ==\n\n",
                bench.name.c_str(), opts.get("impedance").c_str());

    // 1. Current trace.
    const CurrentTrace trace = benchmarkCurrentTrace(
        setup, bench,
        static_cast<std::uint64_t>(opts.getInt("instructions")));
    RunningStats istats;
    for (Amp amp : trace)
        istats.push(amp);
    std::printf("current: mean %.1f A, sigma %.1f A, range [%.1f, %.1f] A "
                "over %zu cycles\n\n",
                istats.mean(), istats.stddev(), istats.min(), istats.max(),
                trace.size());

    // 2. Gaussian window classification (paper Figures 6/12).
    Rng rng(1);
    for (std::size_t window : {32u, 64u, 128u}) {
        const auto summary = classifyWindows(trace, window, 300, rng);
        std::printf("%3zu-cycle windows: %.0f%% Gaussian; non-Gaussian "
                    "window variance %.1f A^2 (overall %.1f A^2)\n",
                    window, 100.0 * summary.acceptanceRate(),
                    summary.meanVarianceNonGaussian,
                    summary.overallVariance);
    }

    // 3. Subband energy map (paper Section 4.1 step 2).
    const Dwt dwt(WaveletBasis::haar());
    std::vector<double> scale_var(8, 0.0);
    std::size_t windows = 0;
    const std::span<const double> samples(trace.data(), trace.size());
    ScaleStats stats;
    for (std::size_t off = 0; off + 256 <= trace.size(); off += 256) {
        computeScaleStats(dwt.forward(samples.subspan(off, 256), 8), stats);
        for (std::size_t j = 0; j < 8; ++j)
            scale_var[j] += stats.subbandVariance[j];
        ++windows;
    }
    std::printf("\nper-scale current variance (A^2; resonance at %.0f "
                "MHz):\n",
                network.resonantFrequency() / 1e6);
    double max_var = 0.0;
    for (double v : scale_var)
        max_var = std::max(max_var, v / windows);
    for (std::size_t j = 0; j < 8; ++j) {
        const SubbandFrequency band =
            detailBandFrequency(j, setup.proc.clockHz);
        const double v = scale_var[j] / windows;
        std::printf("  level %zu [%4.0f-%4.0f MHz]  %7.1f  %s\n", j,
                    band.lowHz / 1e6, band.highHz / 1e6, v,
                    asciiBar(v, max_var, 30).c_str());
    }

    // 4. Emergency estimation vs measurement (paper Figure 9).
    const VoltageVarianceModel model = makeCalibratedModel(setup, network);
    const EmergencyProfile profile =
        profileTrace(trace, network, model, 0.97, 1.03);
    std::printf("\nvoltage-emergency exposure (below 0.97 V):\n"
                "  wavelet estimate : %6.2f%% of cycles\n"
                "  measured         : %6.2f%% of cycles\n"
                "  est. voltage var : %.3e V^2 (measured %.3e V^2)\n",
                100.0 * profile.estimatedBelow,
                100.0 * profile.measuredBelow, profile.estimatedVariance,
                profile.measuredVariance);

    const bool problematic = profile.estimatedBelow > 0.03;
    std::printf("\nverdict: %s is %s for dI/dt at this impedance "
                "(threshold: 3%% of cycles below 0.97 V)\n",
                bench.name.c_str(),
                problematic ? "PROBLEMATIC" : "benign");
    return 0;
}
