/**
 * @file
 * Ablation: wavelet basis choice for the offline estimator and the
 * closed-loop controller.
 *
 * The paper picks the Haar basis for its match to the sharp
 * discontinuities in current waveforms (and its trivially cheap
 * hardware). This ablation re-runs the Figure-9 estimation experiment
 * under every registered basis — Haar, Daubechies-4/6, the
 * adjusted-Haar rotation, and the linear-spline (Battle-Lemarie)
 * family — and reports, per basis: the RMS/max emergency estimation
 * error (Section 4), the worst DWT round-trip reconstruction error
 * over the benchmark traces, and the effectiveness of the adaptive
 * wavelet control scheme when its hazard model is calibrated in that
 * basis (faults and slowdown vs an uncontrolled baseline).
 */

#include <cmath>

#include "bench_common.hh"

using namespace didt;

int
main(int argc, char **argv)
{
    Options opts;
    bench::declareCommonOptions(opts);
    opts.declare("impedance", "1.25", "target-impedance scale");
    opts.declare("benchmarks", "gzip,mgrid,galgel,mcf,crafty,swim,vpr,apsi",
                 "comma-separated benchmark subset");
    opts.declare("control-instructions", "20000",
                 "closed-loop instructions per benchmark");
    opts.parse(argc, argv);

    const ExperimentSetup setup = makeStandardSetup();
    bench::banner(setup);
    const SupplyNetwork net =
        setup.makeNetwork(opts.getDouble("impedance"));

    std::vector<std::string> names;
    {
        std::string list = opts.get("benchmarks");
        std::size_t pos = 0;
        while (pos < list.size()) {
            const std::size_t comma = list.find(',', pos);
            names.push_back(list.substr(pos, comma - pos));
            if (comma == std::string::npos)
                break;
            pos = comma + 1;
        }
    }

    const auto instructions =
        static_cast<std::uint64_t>(opts.getInt("instructions"));
    const auto seed = static_cast<std::uint64_t>(opts.getInt("seed"));
    std::vector<CurrentTrace> traces;
    for (const std::string &name : names)
        traces.push_back(benchmarkCurrentTrace(
            setup, profileByName(name), instructions, seed));

    // Uncontrolled baselines for the control-effectiveness columns.
    const auto control_instructions = static_cast<std::uint64_t>(
        opts.getInt("control-instructions"));
    std::vector<CosimResult> baselines;
    for (const std::string &name : names) {
        CosimConfig cfg;
        cfg.instructions = control_instructions;
        cfg.seed = seed;
        cfg.scheme = ControlScheme::None;
        baselines.push_back(runClosedLoop(profileByName(name), setup.proc,
                                          setup.power, net, cfg));
    }

    Table table({"basis", "rms_error_pct", "max_error_pct",
                 "max_recon_err", "ctl_faults", "ctl_slowdown_pct"});
    for (const std::string &basis_name : WaveletBasis::allNames()) {
        const WaveletBasis basis = WaveletBasis::byName(basis_name);
        const VoltageVarianceModel model =
            makeCalibratedModel(setup, net, 256, 8, basis);

        // Section-4 estimation accuracy in this basis.
        double sq = 0.0;
        double max_err = 0.0;
        for (const CurrentTrace &trace : traces) {
            const auto profile =
                profileTrace(trace, net, model, 0.97, 1.03);
            const double err = 100.0 * (profile.estimatedBelow -
                                        profile.measuredBelow);
            sq += err * err;
            max_err = std::max(max_err, std::fabs(err));
        }

        // Analysis fidelity: worst |x - idwt(dwt(x))| over the traces
        // (each truncated to a multiple of 2^levels as the DWT needs).
        const Dwt dwt(basis);
        double max_recon = 0.0;
        for (const CurrentTrace &trace : traces) {
            const std::size_t n = trace.size() & ~std::size_t{255};
            if (n == 0)
                continue;
            const std::span<const double> head(trace.data(), n);
            const FlatDecomposition dec = dwt.forward(head, 8);
            const std::vector<double> back = dwt.inverse(dec);
            for (std::size_t i = 0; i < n; ++i)
                max_recon = std::max(
                    max_recon, std::fabs(back[i] - head[i]));
        }

        // Closed-loop effectiveness with the hazard model in this
        // basis: total faults and mean slowdown across the subset.
        std::uint64_t faults = 0;
        RunningStats slow;
        for (std::size_t i = 0; i < names.size(); ++i) {
            CosimConfig cfg;
            cfg.instructions = control_instructions;
            cfg.seed = seed;
            cfg.scheme = ControlScheme::AdaptiveWavelet;
            cfg.hazardModel = &model;
            const CosimResult r =
                runClosedLoop(profileByName(names[i]), setup.proc,
                              setup.power, net, cfg);
            faults += r.lowFaults + r.highFaults;
            slow.push(100.0 * slowdown(r, baselines[i]));
        }

        table.newRow();
        table.add(basis_name);
        table.add(std::sqrt(sq / static_cast<double>(traces.size())), 3);
        table.add(max_err, 3);
        char recon[32];
        std::snprintf(recon, sizeof(recon), "%.2e", max_recon);
        table.add(std::string(recon));
        table.add(static_cast<long long>(faults));
        table.add(slow.mean(), 3);
    }
    bench::emit(table, opts,
                "Ablation: wavelet basis for estimation and control");
    return 0;
}
