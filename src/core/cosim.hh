/**
 * @file
 * Closed-loop co-simulation: cores + supply network + monitor +
 * controller (paper Section 5.3, Figure 15, Table 2).
 *
 * Each cycle the cores of a Chip draw current, the scaled sum drives
 * the supply network to the true voltage, the selected monitor
 * estimates the voltage from that aggregate current, and the
 * controller's actuation (stall issue / inject no-ops) is applied to
 * the cores for the next cycle. The harness accounts voltage faults,
 * false positives, control activity, and performance. The paper's
 * uniprocessor is the 1-core chip, bit-for-bit the Processor path.
 *
 * Lockstep actuation (the default) applies each decision to every core
 * on the same cycle, so the throttle itself is a synchronized current
 * step that can re-excite the package resonance. Staggered actuation
 * delays core i by i * stride cycles, stride = max(1, resonant period
 * / cores): the actuation steps spread across the resonant period and
 * cancel there instead of adding. Core 0 is never delayed.
 */

#ifndef DIDT_CORE_COSIM_HH
#define DIDT_CORE_COSIM_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/controller.hh"
#include "core/experiment.hh"
#include "core/variance_model.hh"
#include "power/supply_network.hh"
#include "sim/config.hh"
#include "sim/power_model.hh"
#include "util/types.hh"
#include "workload/profile.hh"

namespace didt
{

/** Control scheme selection for a closed-loop run. */
enum class ControlScheme
{
    None,            ///< uncontrolled baseline
    Wavelet,         ///< wavelet-convolution monitor + thresholds
    FullConvolution, ///< full convolution monitor + thresholds
    AnalogSensor,    ///< delayed true-voltage sensor + thresholds
    PipelineDamping, ///< current-delta invariant (Powell & Vijaykumar)
    /**
     * Extension beyond the paper: the wavelet monitor plus an on-line
     * wavelet characterizer that tightens the control points only
     * while the running phase is dI/dt-hazardous, recovering the
     * optimistic thresholds' near-zero overhead on benign phases.
     */
    AdaptiveWavelet,
};

/** Scheme name for reports. */
const char *controlSchemeName(ControlScheme scheme);

/** Parameters of one closed-loop run. */
struct CosimConfig
{
    /** Instructions to execute per core (stream length). */
    std::uint64_t instructions = 200000;

    /** Safety cap on cycles (0 = none). */
    Cycle maxCycles = 0;

    /** Scheme under test. */
    ControlScheme scheme = ControlScheme::None;

    /** Threshold settings (for threshold-based schemes). */
    ControlConfig control{};

    /** Wavelet monitor terms (Wavelet/AdaptiveWavelet schemes). */
    std::size_t waveletTerms = 13;

    /**
     * Calibrated variance model for the AdaptiveWavelet scheme's
     * hazard detector (not owned; must outlive the run). Required for
     * that scheme, ignored otherwise.
     */
    const VoltageVarianceModel *hazardModel = nullptr;

    /** Extra tolerance applied while the phase is hazardous (V). */
    Volt adaptiveExtraTolerance = 0.015;

    /** Hazard probability that arms the conservative control point. */
    double hazardArmLevel = 0.005;

    /** Analog sensor delay in cycles (AnalogSensor scheme). */
    std::size_t sensorDelay = 4;

    /** Damping window in cycles (PipelineDamping scheme). */
    std::size_t dampingWindow = 16;

    /** Damping current delta in amperes (PipelineDamping scheme). */
    Amp dampingDelta = 12.0;

    /**
     * Workload seed of the single-profile runClosedLoop only; the
     * workload-list form takes each core's seed from its ChipWorkload
     * and rejects a nonzero value here.
     */
    std::uint64_t seed = 0;

    /** Staggered actuation (see the file comment for the stride). */
    bool staggered = false;

    /** Haar MODWT depth of aggregateVariances (0 = no trace kept). */
    std::size_t varianceLevels = 0;

    /**
     * Monomorphize the cycle loop on the concrete monitor type so the
     * per-cycle virtual dispatch disappears (the loop body is
     * otherwise identical, so results are bit-for-bit the same).
     * Disable to force the per-cycle virtual reference path — used by
     * the equivalence tests and the cosim bench rows.
     */
    bool devirtualize = true;
};

/** Results of one closed-loop run. */
struct CosimResult
{
    std::string scheme;            ///< scheme name
    Cycle cycles = 0;              ///< cycles to run all streams
    std::uint64_t committed = 0;   ///< instructions committed (all cores)
    std::uint64_t lowFaults = 0;   ///< cycles with true V < low fault
    std::uint64_t highFaults = 0;  ///< cycles with true V > high fault
    std::uint64_t controlCycles = 0; ///< cycles with actuation asserted
    std::uint64_t stallCycles = 0;   ///< issue-stall actuations
    std::uint64_t noopCycles = 0;    ///< no-op actuations
    /**
     * Actuations asserted while the true voltage was safely inside the
     * control band — the false-positive proxy for Table 2.
     */
    std::uint64_t falsePositives = 0;
    Volt minVoltage = 0.0;         ///< lowest true voltage seen
    Volt maxVoltage = 0.0;         ///< highest true voltage seen
    double meanCurrent = 0.0;      ///< average aggregate current
    double energyJ = 0.0;          ///< total energy (all cores)

    /** Per-scale haar MODWT variance of the aggregate current. */
    std::vector<double> aggregateVariances;

    /** Level index (0-based) of the supply's resonant octave. */
    std::size_t resonanceLevel = 0;

    /** False positives per control cycle. */
    double falsePositiveRate() const
    {
        return controlCycles ? static_cast<double>(falsePositives) /
                                   static_cast<double>(controlCycles)
                             : 0.0;
    }

    /** Aggregate-current wavelet variance in the resonant octave. */
    double resonanceBandVariance() const
    {
        return resonanceLevel < aggregateVariances.size()
                   ? aggregateVariances[resonanceLevel]
                   : 0.0;
    }
};

/**
 * Run one closed-loop simulation of a chip with one core per entry of
 * @p workloads on @p network. chip.cores and chip.core are overwritten
 * from @p workloads and @p proc.
 *
 * @throws std::invalid_argument on an empty list, a null profile, a
 *         nonzero cfg.seed, or AdaptiveWavelet without cfg.hazardModel
 */
CosimResult runClosedLoop(std::span<const ChipWorkload> workloads,
                          const ProcessorConfig &proc,
                          const PowerModelConfig &power,
                          const SupplyNetwork &network,
                          const CosimConfig &cfg, ChipConfig chip = {});

/**
 * Run one closed-loop simulation of @p profile on the uniprocessor:
 * the list form with the single workload {&profile, cfg.seed}.
 */
CosimResult runClosedLoop(const BenchmarkProfile &profile,
                          const ProcessorConfig &proc,
                          const PowerModelConfig &power,
                          const SupplyNetwork &network,
                          const CosimConfig &cfg);

/**
 * Index (0-based) of the MODWT level whose octave holds the supply's
 * resonance, for a resonant period of @p period_cycles clock cycles,
 * clamped to @p levels levels.
 */
std::size_t resonantOctave(double period_cycles, std::size_t levels);

/**
 * Relative slowdown of @p controlled vs @p baseline
 * (cycles ratio - 1).
 */
double slowdown(const CosimResult &controlled, const CosimResult &baseline);

} // namespace didt

#endif // DIDT_CORE_COSIM_HH
