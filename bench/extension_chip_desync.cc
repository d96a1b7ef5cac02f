/**
 * @file
 * Extension experiment: chip-level throttle desynchronization on an
 * N-core CMP.
 *
 * An in-phase multi-program mix (every core running the same stream
 * from the same seed) is the CMP worst case: per-core currents add
 * coherently, so the aggregate stimulus concentrates energy in the
 * resonant octave of the shared supply. Part (a) quantifies that
 * excitation by comparing the uncontrolled aggregate's per-octave
 * wavelet variance for the in-phase mix against its seed-staggered
 * twin. Part (b) closes the loop: the same wavelet controller is run
 * chip-wide, either applying each decision to all cores on the same
 * cycle (chip-independent) or offsetting core i's actuation by
 * i*stride cycles so the throttle edges spread across one resonant
 * period (chip-staggered). In the episodic-actuation regime the
 * staggered scheme measurably reduces the aggregate's resonance-band
 * variance relative to lockstep actuation.
 */

#include <cmath>
#include <vector>

#include "bench_common.hh"

using namespace didt;

namespace
{

std::vector<ChipWorkload>
mixWorkloads(const WorkloadMix &mix, std::size_t cores,
             std::uint64_t seed)
{
    std::vector<ChipWorkload> workloads;
    workloads.reserve(cores);
    for (std::size_t i = 0; i < cores; ++i)
        workloads.push_back(
            {&mixProfileForCore(mix, i), mixCoreSeed(mix, seed, i)});
    return workloads;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    bench::declareCommonOptions(opts);
    opts.declare("cores", "4", "cores on the simulated chip");
    opts.declare("mix-benchmark", "gzip",
                 "profile for the in-phase vs seed-staggered contrast");
    opts.declare("control-benchmark", "mgrid",
                 "profile for the closed-loop scheme comparison (a "
                 "dI/dt stressor keeps the controller engaged)");
    opts.declare("impedance", "1.5", "supply impedance scale");
    opts.declare("tolerance", "0.030",
                 "controller tolerance (volts above the fault level)");
    opts.parse(argc, argv);
    bench::beginObs(opts);

    const ExperimentSetup setup = makeStandardSetup();
    bench::banner(setup);

    const auto cores = static_cast<std::size_t>(opts.getInt("cores"));
    const auto instructions =
        static_cast<std::uint64_t>(opts.getInt("instructions"));
    const auto seed = static_cast<std::uint64_t>(opts.getInt("seed"));
    const std::string mix_bench = opts.get("mix-benchmark");
    const std::string control_bench = opts.get("control-benchmark");
    const SupplyNetwork network =
        setup.makeNetwork(opts.getDouble("impedance"));

    // Part (a): how much resonance-band energy does phase alignment
    // itself add? Uncontrolled aggregate, in-phase vs seed-staggered.
    const WorkloadMix inphase = mixByName("inphase-" + mix_bench);
    const WorkloadMix staggered_mix =
        mixByName("staggered-" + mix_bench);
    const Modwt modwt(WaveletBasis::haar());
    const std::size_t levels = 8;
    const auto var_inphase = modwt.waveletVariance(
        chipCurrentTrace(setup, mixWorkloads(inphase, cores, seed),
                         instructions)
            .aggregate,
        levels);
    const auto var_staggered = modwt.waveletVariance(
        chipCurrentTrace(setup, mixWorkloads(staggered_mix, cores, seed),
                         instructions)
            .aggregate,
        levels);

    const double ratio = setup.supplyBase.clockHz /
                         setup.supplyBase.resonantHz;
    const std::size_t res_level = std::min<std::size_t>(
        static_cast<std::size_t>(std::floor(std::log2(ratio))) - 1,
        levels - 1);

    double peak = 0.0;
    for (std::size_t j = 0; j < levels; ++j)
        peak = std::max({peak, var_inphase[j], var_staggered[j]});
    Table octaves({"level", "freq_band_mhz", "inphase_var",
                   "staggered_var", "plot_inphase"});
    for (std::size_t j = 0; j < levels; ++j) {
        const double hi = setup.supplyBase.clockHz /
                          std::pow(2.0, static_cast<double>(j + 1)) /
                          1e6;
        octaves.newRow();
        octaves.add(static_cast<long long>(j + 1));
        octaves.add(hi, 1);
        octaves.add(var_inphase[j], 4);
        octaves.add(var_staggered[j], 4);
        octaves.add(asciiBar(var_inphase[j], peak, 28));
    }
    bench::emit(octaves, opts,
                "Uncontrolled aggregate wavelet variance by octave, " +
                    std::to_string(cores) + "-core " + mix_bench +
                    " mix");
    std::printf("resonant octave is level %zu: in-phase %.4f vs "
                "seed-staggered %.4f (x%.2f)\n\n",
                res_level + 1, var_inphase[res_level],
                var_staggered[res_level],
                var_inphase[res_level] /
                    std::max(1e-12, var_staggered[res_level]));

    // Part (b): chip-wide wavelet control of an in-phase stressor
    // mix, lockstep vs staggered actuation phases.
    const std::vector<ChipWorkload> workloads = mixWorkloads(
        mixByName("inphase-" + control_bench), cores, seed);
    CosimConfig cfg;
    cfg.instructions = instructions;
    cfg.control.tolerance = opts.getDouble("tolerance");
    cfg.varianceLevels = 8;

    struct ChipScheme
    {
        const char *label;
        ControlScheme scheme;
        bool staggered;
    };
    Table schemes({"scheme", "control_cycles", "resonance_var",
                   "min_voltage_v", "low_faults", "committed"});
    double var_independent = 0.0;
    double var_desync = 0.0;
    for (const ChipScheme &chip :
         {ChipScheme{"chip-none", ControlScheme::None, false},
          ChipScheme{"chip-independent", ControlScheme::Wavelet, false},
          ChipScheme{"chip-staggered", ControlScheme::Wavelet, true}}) {
        cfg.scheme = chip.scheme;
        cfg.staggered = chip.staggered;
        const CosimResult r = runClosedLoop(workloads, setup.proc,
                                            setup.power, network, cfg);
        if (chip.scheme != ControlScheme::None && !chip.staggered)
            var_independent = r.resonanceBandVariance();
        if (chip.staggered)
            var_desync = r.resonanceBandVariance();
        schemes.newRow();
        schemes.add(std::string(chip.label));
        schemes.add(static_cast<long long>(r.controlCycles));
        schemes.add(r.resonanceBandVariance(), 4);
        schemes.add(r.minVoltage, 4);
        schemes.add(static_cast<long long>(r.lowFaults));
        schemes.add(static_cast<long long>(r.committed));
    }
    bench::emit(schemes, opts,
                "Chip-wide control of the in-phase " + control_bench +
                    " mix, lockstep vs staggered actuation");
    std::printf("staggering the throttle phases cuts resonance-band "
                "variance by %.1f%% vs lockstep actuation\n",
                100.0 * (1.0 - var_desync /
                                   std::max(1e-12, var_independent)));
    bench::writeObsOutputs(opts);
    return 0;
}
