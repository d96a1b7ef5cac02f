/**
 * @file
 * The paper's Section-2 motivation, quantified: why wavelets and not
 * Fourier for bursty processor current?
 *
 * Two probes on real machine traces and controlled signals:
 *
 *  1. Sparsity — fraction of transform coefficients needed to capture
 *     95% of signal energy. The paper claims wavelet matrices are
 *     sparse for bursty signals ("a small group of coefficients can
 *     represent a signal fairly well"); the DFT needs many bins for a
 *     transient because its basis is global.
 *
 *  2. Localization — a single 32-cycle burst is moved through the
 *     window; the wavelet transform concentrates its energy in a few
 *     time-local coefficients while the burst's DFT energy spreads
 *     over the whole spectrum regardless of position.
 */

#include <algorithm>
#include <cmath>

#include "bench_common.hh"

using namespace didt;

namespace
{

/** Coefficients needed for 95% of energy (count, fraction). */
std::size_t
coefficientsFor95(std::vector<double> magnitudes_sq)
{
    std::sort(magnitudes_sq.begin(), magnitudes_sq.end(),
              std::greater<>());
    double total = 0.0;
    for (double e : magnitudes_sq)
        total += e;
    double acc = 0.0;
    for (std::size_t k = 0; k < magnitudes_sq.size(); ++k) {
        acc += magnitudes_sq[k];
        if (acc >= 0.95 * total)
            return k + 1;
    }
    return magnitudes_sq.size();
}

std::size_t
dwtCoefficients95(const std::vector<double> &x)
{
    const Dwt dwt(WaveletBasis::haar());
    const auto dec = dwt.forward(x, 8);
    std::vector<double> energies;
    for (double c : dec.coefficients())
        energies.push_back(c * c);
    return coefficientsFor95(std::move(energies));
}

std::size_t
dftCoefficients95(const std::vector<double> &x)
{
    const auto spectrum = dft(x);
    std::vector<double> energies;
    for (const auto &c : spectrum)
        energies.push_back(std::norm(c));
    return coefficientsFor95(std::move(energies));
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    bench::declareCommonOptions(opts);
    opts.parse(argc, argv);

    const ExperimentSetup setup = makeStandardSetup();
    bench::banner(setup);

    // ---- Probe 1: sparsity on machine traces and controlled signals.
    Table sparsity({"signal", "dwt_coeffs_for_95pct",
                    "dft_coeffs_for_95pct", "of_total"});
    auto add_signal = [&](const std::string &name,
                          const std::vector<double> &x) {
        // Remove the mean: both transforms would otherwise spend their
        // first coefficient on DC and mask the comparison.
        double mean = 0.0;
        for (double v : x)
            mean += v;
        mean /= static_cast<double>(x.size());
        std::vector<double> centered(x.size());
        for (std::size_t i = 0; i < x.size(); ++i)
            centered[i] = x[i] - mean;
        sparsity.newRow();
        sparsity.add(name);
        sparsity.add(static_cast<long long>(dwtCoefficients95(centered)));
        sparsity.add(static_cast<long long>(dftCoefficients95(centered)));
        sparsity.add(static_cast<long long>(x.size()));
    };

    const std::size_t n = 1024;
    // Stationary sine: Fourier's home turf.
    std::vector<double> sine(n);
    for (std::size_t t = 0; t < n; ++t)
        sine[t] = 10.0 * std::sin(2.0 * M_PI * static_cast<double>(t) /
                                  64.0);
    add_signal("stationary sine", sine);

    // Single transient burst: wavelets' home turf.
    std::vector<double> burst(n, 0.0);
    for (std::size_t t = 500; t < 532; ++t)
        burst[t] = 30.0;
    add_signal("32-cycle burst", burst);

    // Step (phase change).
    std::vector<double> step(n, 0.0);
    for (std::size_t t = n / 2; t < n; ++t)
        step[t] = 20.0;
    add_signal("step", step);

    // Real benchmark windows.
    for (const char *name : {"gzip", "mgrid", "mcf"}) {
        const CurrentTrace trace = benchmarkCurrentTrace(
            setup, profileByName(name),
            static_cast<std::uint64_t>(opts.getInt("instructions")));
        add_signal(std::string(name) + " current (1024 cyc)",
                   {trace.begin() + 20000, trace.begin() + 20000 + n});
    }
    bench::emit(sparsity, opts,
                "Motivation 1: coefficients needed for 95% of energy");

    // ---- Probe 2: localization of a moving burst.
    Table local({"burst_position", "dwt_top8_energy_pct",
                 "dft_top8_energy_pct"});
    for (std::size_t pos : {100u, 300u, 500u, 700u, 900u}) {
        std::vector<double> x(n, 0.0);
        for (std::size_t t = pos; t < pos + 32 && t < n; ++t)
            x[t] = 30.0;
        const Dwt dwt(WaveletBasis::haar());
        const auto dec = dwt.forward(x, 8);
        const double dwt_frac = energyCaptured(dec, 8);

        const auto spectrum = dft(x);
        std::vector<double> energies;
        double total = 0.0;
        for (const auto &c : spectrum) {
            energies.push_back(std::norm(c));
            total += std::norm(c);
        }
        std::sort(energies.begin(), energies.end(), std::greater<>());
        double top8 = 0.0;
        for (std::size_t k = 0; k < 8; ++k)
            top8 += energies[k];

        local.newRow();
        local.add(static_cast<long long>(pos));
        local.add(100.0 * dwt_frac, 1);
        local.add(100.0 * top8 / total, 1);
    }
    bench::emit(local, opts,
                "Motivation 2: energy in the 8 largest coefficients, "
                "moving burst");
    std::printf("reading: 8 Haar coefficients pin the burst wherever it "
                "sits; 8 DFT bins never can,\nbecause Fourier "
                "coefficients describe global frequency behaviour "
                "(paper Section 2.1).\n");
    return 0;
}
