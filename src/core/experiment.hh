/**
 * @file
 * Shared experiment environment for benches, examples, and
 * integration tests.
 *
 * Provides the paper's standard setup: the Table-1 processor with the
 * default power budget, and a supply network whose 100% target
 * impedance is calibrated so the worst-case execution sequence (a
 * resonant square wave between the machine's idle and peak current)
 * just stays inside the +/-5% voltage band (paper Section 3.1).
 */

#ifndef DIDT_CORE_EXPERIMENT_HH
#define DIDT_CORE_EXPERIMENT_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/variance_model.hh"
#include "power/supply_network.hh"
#include "power/trace_io.hh"
#include "sim/chip.hh"
#include "sim/config.hh"
#include "sim/power_model.hh"
#include "util/types.hh"
#include "workload/profile.hh"

namespace didt
{

class SyntheticWorkload;

/** The standard experimental environment. */
struct ExperimentSetup
{
    /** Table-1 processor configuration. */
    ProcessorConfig proc{};

    /** Default power budget. */
    PowerModelConfig power{};

    /** Supply config with the calibrated 100% dcResistance. */
    SupplyNetworkConfig supplyBase{};

    /** Machine idle current (all structures gated). */
    Amp idleCurrent = 0.0;

    /** Machine peak current (everything switching). */
    Amp peakCurrent = 0.0;

    /**
     * Build a supply network at the given target-impedance scale
     * (1.0 = 100%, 1.5 = 150%, ...).
     */
    SupplyNetwork makeNetwork(double impedance_scale) const;
};

/**
 * Construct and calibrate the standard setup. Deterministic; the
 * calibration stimulus is the worst-case resonant square wave between
 * idle and peak current.
 */
ExperimentSetup makeStandardSetup();

/**
 * Current trace of the dI/dt stressmark (virus) running on the
 * standard machine: the achievable worst-case execution sequence used
 * for target-impedance calibration.
 */
CurrentTrace virusCurrentTrace(const ExperimentSetup &setup,
                               std::size_t cycles = 16384);

/**
 * Current traces of the calibration microbenchmark suite: dI/dt virus
 * variants at several burst/stall tunings plus generic synthetic
 * workloads spanning the compute / L2-oscillation / memory-bound
 * space. Used to train the voltage-variance model; deliberately
 * disjoint from the 26 named SPEC profiles used for evaluation.
 */
std::vector<CurrentTrace>
calibrationTraces(const ExperimentSetup &setup);

/**
 * The calibration suite as deferred per-trace builders, so campaign
 * drivers can generate the training set in parallel. Builders are
 * independent and safe to run concurrently; each captures @p setup by
 * reference, which must outlive them. Running every builder in order
 * yields exactly calibrationTraces(setup).
 */
std::vector<std::function<CurrentTrace()>>
calibrationTraceBuilders(const ExperimentSetup &setup);

/**
 * Build a VoltageVarianceModel for @p network calibrated on the
 * microbenchmark suite (paper Section 4.1's factor-derivation
 * experiments).
 *
 * @param setup the experiment environment
 * @param network the supply network the model is bound to; must
 *        outlive the returned model
 * @param window_length analysis window (paper: 256)
 * @param levels decomposition depth (paper: 8)
 */
VoltageVarianceModel
makeCalibratedModel(const ExperimentSetup &setup,
                    const SupplyNetwork &network,
                    std::size_t window_length = 256,
                    std::size_t levels = 8,
                    WaveletBasis basis = WaveletBasis::haar());

/**
 * Run @p profile on the standard machine and return its per-cycle
 * current trace.
 *
 * @param setup the experiment environment
 * @param profile benchmark to run
 * @param instructions dynamic instruction count
 * @param seed extra workload seed
 * @param trim_warmup cycles dropped from the front (cold caches)
 * @param sampling optional SimPoint-style sampling; the disabled
 *        default runs full detail and is byte-identical to the
 *        historical signature
 */
CurrentTrace benchmarkCurrentTrace(const ExperimentSetup &setup,
                                   const BenchmarkProfile &profile,
                                   std::uint64_t instructions,
                                   std::uint64_t seed = 0,
                                   std::size_t trim_warmup = 4096,
                                   const SamplingConfig &sampling = {});

/** Per-core program assignment for one chip-level run. */
struct ChipWorkload
{
    const BenchmarkProfile *profile; ///< benchmark this core runs
    std::uint64_t seed = 0;          ///< this core's stream seed
};

/**
 * A Chip running one SyntheticWorkload per core, each core warmed like
 * benchmarkCurrentTrace (footprint touch plus a 150k-instruction warm
 * stream), shared-L2 statistics cleared. It owns the streams the cores
 * reference, so they outlive the chip.
 */
class WarmedChip
{
  public:
    /**
     * chip.cores and chip.core are overwritten from @p workloads and
     * @p proc; @p instructions is the stream length per core.
     * @throws std::invalid_argument on an empty list or a null profile
     */
    WarmedChip(std::span<const ChipWorkload> workloads,
               std::uint64_t instructions, const ProcessorConfig &proc,
               const PowerModelConfig &power, ChipConfig chip = {});
    ~WarmedChip();

    /** The warmed chip, ready for its first timed cycle. */
    Chip &chip() { return *chip_; }

  private:
    std::vector<std::unique_ptr<SyntheticWorkload>> streams_;
    std::unique_ptr<Chip> chip_; ///< destroyed before streams_
};

/**
 * Run a multi-program chip and return its per-core + aggregate current
 * traces. The chip is a WarmedChip, the run is capped like
 * benchmarkCurrentTrace, and the warm-up trim is applied to the
 * aggregate and every per-core trace alike — so a 1-core chip
 * reproduces benchmarkCurrentTrace bit-for-bit.
 *
 * @param setup the experiment environment
 * @param workloads one profile+seed per core (size = core count)
 * @param instructions dynamic instruction count per core
 * @param trim_warmup cycles dropped from the front (cold caches)
 * @param chip chip parameters (cores is overwritten from @p workloads;
 *        core config is overwritten from @p setup)
 * @param sampling optional SimPoint-style sampling applied to every
 *        core in lockstep; disabled by default (full detail,
 *        byte-identical to the historical signature)
 */
TraceSet chipCurrentTrace(const ExperimentSetup &setup,
                          const std::vector<ChipWorkload> &workloads,
                          std::uint64_t instructions,
                          std::size_t trim_warmup = 4096,
                          ChipConfig chip = {},
                          const SamplingConfig &sampling = {});

} // namespace didt

#endif // DIDT_CORE_EXPERIMENT_HH
