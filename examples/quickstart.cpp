/**
 * @file
 * Quickstart: the full wavelet dI/dt workflow in one program.
 *
 *  1. Build the paper's Table-1 processor and run a synthetic SPEC
 *     benchmark, collecting its per-cycle current trace.
 *  2. Calibrate the second-order supply network to 100% target
 *     impedance and inspect its resonance.
 *  3. Wavelet-decompose a 256-cycle window (paper Figures 3-4).
 *  4. Characterize voltage-emergency exposure offline with the wavelet
 *     variance model (paper Section 4).
 *  5. Close the loop with the wavelet-convolution dI/dt controller and
 *     measure its overhead (paper Section 5).
 */

#include <cstdio>
#include <iostream>

#include "didt/didt.hh"

int
main()
{
    using namespace didt;

    // ---- 1. Machine + workload -----------------------------------------
    std::cout << "== Processor configuration (paper Table 1) ==\n";
    ExperimentSetup setup = makeStandardSetup();
    setup.proc.print(std::cout);
    std::printf("idle current %.1f A, peak current %.1f A\n\n",
                setup.idleCurrent, setup.peakCurrent);

    const BenchmarkProfile &bench = profileByName("gzip");
    const CurrentTrace trace =
        benchmarkCurrentTrace(setup, bench, 120000);
    RunningStats istats;
    for (double amp : trace)
        istats.push(amp);
    std::printf("gzip: %zu cycles, mean current %.1f A, sigma %.1f A\n\n",
                trace.size(), istats.mean(), istats.stddev());

    // ---- 2. Supply network ----------------------------------------------
    const SupplyNetwork network = setup.makeNetwork(1.5); // 150% impedance
    std::printf("supply: R=%.2e ohm, L=%.2e H, C=%.2e F, f0=%.1f MHz\n",
                network.resistance(), network.inductance(),
                network.capacitance(),
                network.resonantFrequency() / 1e6);
    std::printf("impedance at f0: %.2e ohm (dc %.2e)\n\n",
                network.impedanceAt(network.resonantFrequency()),
                network.impedanceAt(1.0));

    // ---- 3. Wavelet analysis of one window ------------------------------
    const Dwt dwt(WaveletBasis::haar());
    std::vector<double> window(trace.begin() + 20000,
                               trace.begin() + 20000 + 256);
    const FlatDecomposition dec = dwt.forward(window, 8);
    std::cout << "== Scalogram of a 256-cycle gzip window (Figure 4) ==\n";
    Scalogram(dec).renderAscii(std::cout, 96);
    std::cout << '\n';

    // ---- 4. Offline emergency characterization --------------------------
    const VoltageVarianceModel model = makeCalibratedModel(setup, network);
    const EmergencyProfile profile =
        profileTrace(trace, network, model, 0.97, 1.03);
    std::printf("offline estimate: %.2f%% of cycles below 0.97 V "
                "(measured %.2f%%)\n\n",
                100.0 * profile.estimatedBelow,
                100.0 * profile.measuredBelow);

    // ---- 5. Online wavelet control ---------------------------------------
    CosimConfig cosim;
    cosim.instructions = 60000;
    cosim.scheme = ControlScheme::None;
    const CosimResult baseline =
        runClosedLoop(bench, setup.proc, setup.power, network, cosim);
    cosim.scheme = ControlScheme::Wavelet;
    cosim.waveletTerms = 13;
    cosim.control.tolerance = 0.020;
    const CosimResult controlled =
        runClosedLoop(bench, setup.proc, setup.power, network, cosim);
    std::printf("uncontrolled: %llu low-voltage faults, min %.4f V\n",
                static_cast<unsigned long long>(baseline.lowFaults),
                baseline.minVoltage);
    std::printf("wavelet ctl : %llu faults, min %.4f V, slowdown %.3f%%, "
                "%llu control cycles\n",
                static_cast<unsigned long long>(controlled.lowFaults),
                controlled.minVoltage,
                100.0 * slowdown(controlled, baseline),
                static_cast<unsigned long long>(controlled.controlCycles));
    return 0;
}
