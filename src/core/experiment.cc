#include "core/experiment.hh"

#include <memory>
#include <stdexcept>

#include "power/stimulus.hh"
#include "sim/processor.hh"
#include "util/logging.hh"
#include "workload/generator.hh"
#include "workload/virus.hh"

namespace didt
{

SupplyNetwork
ExperimentSetup::makeNetwork(double impedance_scale) const
{
    SupplyNetworkConfig cfg = supplyBase;
    cfg.impedanceScale = impedance_scale;
    return SupplyNetwork(cfg);
}

ExperimentSetup
makeStandardSetup()
{
    ExperimentSetup setup;

    const PowerModel model(setup.power, setup.proc);
    setup.idleCurrent = model.idlePower() / setup.proc.nominalVoltage;
    setup.peakCurrent = model.peakPower() / setup.proc.nominalVoltage;

    setup.supplyBase.clockHz = setup.proc.clockHz;
    setup.supplyBase.nominalVoltage = setup.proc.nominalVoltage;

    setup.supplyBase =
        calibrateTargetImpedance(setup.supplyBase, virusCurrentTrace(setup));
    return setup;
}

CurrentTrace
virusCurrentTrace(const ExperimentSetup &setup, std::size_t cycles)
{
    DiDtVirus virus = DiDtVirus::tunedFor(
        setup.proc.clockHz, setup.supplyBase.resonantHz,
        static_cast<std::uint32_t>(setup.proc.fetchWidth),
        static_cast<std::uint32_t>(setup.proc.intDivLatency));
    Processor processor(setup.proc, setup.power, virus);
    CurrentTrace trace;
    // The first pass over the virus loop suffers cold-start cache
    // misses (its code region streams in from memory); collect well
    // past that and keep only the locked steady-state tail.
    processor.collectTrace(trace, 2 * cycles + 40000);
    if (trace.size() > cycles)
        trace.erase(trace.begin(), trace.begin() +
                                       static_cast<long>(trace.size() -
                                                         cycles));
    return trace;
}

std::vector<std::function<CurrentTrace()>>
calibrationTraceBuilders(const ExperimentSetup &setup)
{
    std::vector<std::function<CurrentTrace()>> builders;

    // Virus variants: on-resonance plus detuned periods, sweeping the
    // excitation frequency through and around the resonant band.
    for (double detune : {0.5, 0.75, 1.0, 1.5, 2.5}) {
        builders.push_back([&setup, detune] {
            DiDtVirus virus = DiDtVirus::tunedFor(
                setup.proc.clockHz, setup.supplyBase.resonantHz * detune,
                static_cast<std::uint32_t>(setup.proc.fetchWidth),
                static_cast<std::uint32_t>(setup.proc.intDivLatency));
            Processor processor(setup.proc, setup.power, virus);
            CurrentTrace trace;
            processor.collectTrace(trace, 60000);
            trace.erase(trace.begin(), trace.begin() + 40000);
            return trace;
        });
    }

    // Generic synthetic workloads spanning the behaviour space; these
    // parameter points are distinct from every named SPEC profile.
    auto add_profile = [&](const char *name, WorkloadPhase phase,
                           std::uint64_t seed) {
        BenchmarkProfile prof;
        prof.name = name;
        prof.codeBytes = 64 * 1024;
        phase.lengthInsts = 100000;
        prof.phases = {phase};
        prof.seed = seed;
        builders.push_back([&setup, prof = std::move(prof)] {
            return benchmarkCurrentTrace(setup, prof, 40000, 17);
        });
    };

    WorkloadPhase compute;
    compute.hotProb = 1.0;
    compute.warmProb = 0.0;
    add_profile("cal-compute", compute, 501);

    WorkloadPhase osc;
    osc.loadFrac = 0.04;
    osc.storeFrac = 0.08;
    osc.branchFrac = 0.05;
    osc.hotProb = 0.06;
    osc.warmProb = 0.92;
    osc.chaseProb = 1.0;
    osc.gateOnLoadProb = 1.0;
    add_profile("cal-osc", osc, 502);

    WorkloadPhase osc_soft = osc;
    osc_soft.loadFrac = 0.09;
    osc_soft.gateOnLoadProb = 0.5;
    add_profile("cal-osc-soft", osc_soft, 503);

    WorkloadPhase mem;
    mem.loadFrac = 0.33;
    mem.hotProb = 0.55;
    mem.warmProb = 0.28;
    mem.chaseProb = 0.7;
    add_profile("cal-mem", mem, 504);

    WorkloadPhase mixed;
    mixed.hotProb = 0.80;
    mixed.warmProb = 0.18;
    mixed.chaseProb = 0.15;
    add_profile("cal-mixed", mixed, 505);

    return builders;
}

std::vector<CurrentTrace>
calibrationTraces(const ExperimentSetup &setup)
{
    std::vector<CurrentTrace> traces;
    for (const auto &builder : calibrationTraceBuilders(setup))
        traces.push_back(builder());
    return traces;
}

VoltageVarianceModel
makeCalibratedModel(const ExperimentSetup &setup,
                    const SupplyNetwork &network,
                    std::size_t window_length, std::size_t levels,
                    WaveletBasis basis)
{
    VoltageVarianceModel model(network, window_length, levels,
                               std::move(basis));
    const std::vector<CurrentTrace> traces = calibrationTraces(setup);
    model.calibrateOnTraces(traces);
    return model;
}

CurrentTrace
benchmarkCurrentTrace(const ExperimentSetup &setup,
                      const BenchmarkProfile &profile,
                      std::uint64_t instructions, std::uint64_t seed,
                      std::size_t trim_warmup,
                      const SamplingConfig &sampling)
{
    SyntheticWorkload workload(profile, instructions, seed);
    Processor processor(setup.proc, setup.power, workload);

    // SimPoint-style warm start: prime caches and predictor with a
    // separate stream from the same profile before timing.
    SyntheticWorkload warm_source(profile, 0, seed + 0xDEADBEEF);
    processor.warmupFootprint(workload.dataFootprint(),
                              workload.codeFootprint());
    processor.warmup(warm_source, 150000);

    CurrentTrace trace;
    // A generous cap: even fully memory-bound streams rarely exceed
    // ~40 cycles per instruction on this machine.
    const Cycle cap = 64 * instructions + 100000;
    if (sampling.enabled())
        processor.collectTraceSampled(trace, cap, sampling);
    else
        processor.collectTrace(trace, cap);

    if (trace.size() > trim_warmup + 1024)
        trace.erase(trace.begin(),
                    trace.begin() + static_cast<long>(trim_warmup));
    return trace;
}

WarmedChip::WarmedChip(std::span<const ChipWorkload> workloads,
                       std::uint64_t instructions,
                       const ProcessorConfig &proc,
                       const PowerModelConfig &power, ChipConfig chip)
{
    if (workloads.empty())
        throw std::invalid_argument(
            "a chip run needs at least one workload");
    chip.cores = workloads.size();
    chip.core = proc;

    std::vector<InstructionSource *> sources;
    for (const ChipWorkload &w : workloads) {
        if (w.profile == nullptr)
            throw std::invalid_argument("chip workload has no profile");
        streams_.push_back(std::make_unique<SyntheticWorkload>(
            *w.profile, instructions, w.seed));
        sources.push_back(streams_.back().get());
    }
    chip_ = std::make_unique<Chip>(chip, power, sources);

    // Per-core SimPoint-style warm start, identical to the
    // uniprocessor protocol in benchmarkCurrentTrace. Each core's
    // warmup() clears the shared-L2 statistics on completion, so after
    // the last core both the L2 counters and every core's miss
    // baseline sit at zero.
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        SyntheticWorkload warm_source(*workloads[i].profile, 0,
                                      workloads[i].seed + 0xDEADBEEF);
        chip_->core(i).warmupFootprint(streams_[i]->dataFootprint(),
                                       streams_[i]->codeFootprint());
        chip_->core(i).warmup(warm_source, 150000);
    }
    chip_->clearSharedStats();
}

WarmedChip::~WarmedChip() = default;

TraceSet
chipCurrentTrace(const ExperimentSetup &setup,
                 const std::vector<ChipWorkload> &workloads,
                 std::uint64_t instructions, std::size_t trim_warmup,
                 ChipConfig chip, const SamplingConfig &sampling)
{
    WarmedChip warmed(workloads, instructions, setup.proc, setup.power,
                      std::move(chip));
    Chip &machine = warmed.chip();

    TraceSet set;
    const Cycle cap = 64 * instructions + 100000;
    if (sampling.enabled())
        machine.collectTracesSampled(set.perCore, set.aggregate, cap,
                                     sampling);
    else
        machine.collectTraces(set.perCore, set.aggregate, cap);

    if (set.aggregate.size() > trim_warmup + 1024) {
        set.aggregate.erase(
            set.aggregate.begin(),
            set.aggregate.begin() + static_cast<long>(trim_warmup));
        for (CurrentTrace &trace : set.perCore)
            trace.erase(trace.begin(),
                        trace.begin() + static_cast<long>(trim_warmup));
    }
    return set;
}

} // namespace didt
