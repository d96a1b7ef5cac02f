#include "core/cosim.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include "core/monitor.hh"
#include "core/online_characterizer.hh"
#include "obs/metrics.hh"
#include "obs/scoped_timer.hh"
#include "util/logging.hh"
#include "wavelet/modwt.hh"

namespace didt
{

namespace
{

/**
 * The decision history as a ring: slot(0) is the most recent
 * controller decision, slot(d) the decision from d cycles ago. Core i
 * applies slot(i * stride), stride 0 under lockstep actuation. The
 * index wraps by a compare, not a division: it runs every cycle.
 */
class ActionHistory
{
  public:
    explicit ActionHistory(std::size_t max_delay)
        : ring_(max_delay + 1)
    {
    }

    /** @p delay must not exceed the max_delay of construction. */
    const ControlActions &slot(std::size_t delay) const
    {
        const std::size_t index = head_ + delay;
        return ring_[index < ring_.size() ? index : index - ring_.size()];
    }

    void push(const ControlActions &decided)
    {
        head_ = (head_ == 0 ? ring_.size() : head_) - 1;
        ring_[head_] = decided;
    }

  private:
    std::vector<ControlActions> ring_;
    std::size_t head_ = 0;
};

} // namespace

std::size_t
resonantOctave(double period_cycles, std::size_t levels)
{
    // Level j spans [clock/2^(j+1), clock/2^j]; the resonant frequency
    // clock/period lies in level floor(log2(period)), index one less.
    const auto level = static_cast<std::size_t>(
        std::floor(std::log2(std::max(2.0, period_cycles))));
    return std::min(level - 1, levels - 1);
}

const char *
controlSchemeName(ControlScheme scheme)
{
    switch (scheme) {
      case ControlScheme::None: return "none";
      case ControlScheme::Wavelet: return "wavelet";
      case ControlScheme::FullConvolution: return "full-convolution";
      case ControlScheme::AnalogSensor: return "analog-sensor";
      case ControlScheme::PipelineDamping: return "pipeline-damping";
      case ControlScheme::AdaptiveWavelet: return "adaptive-wavelet";
    }
    didt_panic("unknown control scheme");
}

CosimResult
runClosedLoop(std::span<const ChipWorkload> workloads,
              const ProcessorConfig &proc, const PowerModelConfig &power,
              const SupplyNetwork &network, const CosimConfig &cfg,
              ChipConfig chip)
{
    if (cfg.scheme == ControlScheme::AdaptiveWavelet &&
        cfg.hazardModel == nullptr)
        throw std::invalid_argument(
            "AdaptiveWavelet requires cfg.hazardModel");
    if (cfg.seed != 0)
        throw std::invalid_argument(
            "cfg.seed is for the single-profile form; per-core seeds "
            "come from ChipWorkload::seed");
    obs::ScopedTimer span(std::string("cosim ") +
                              controlSchemeName(cfg.scheme),
                          obs::Histogram{}, nullptr, "core");
    WarmedChip warmed(workloads, cfg.instructions, proc, power,
                      std::move(chip));
    Chip &machine = warmed.chip();
    SupplyStream supply(network);

    std::unique_ptr<VoltageMonitor> monitor;
    std::unique_ptr<OnlineCharacterizer> hazard;
    switch (cfg.scheme) {
      case ControlScheme::AdaptiveWavelet:
        hazard = std::make_unique<OnlineCharacterizer>(
            *cfg.hazardModel, network.lowFaultLevel() + 0.02,
            network.highFaultLevel() - 0.02);
        [[fallthrough]];
      case ControlScheme::Wavelet:
        monitor = std::make_unique<WaveletMonitor>(network,
                                                   cfg.waveletTerms);
        break;
      case ControlScheme::FullConvolution:
        monitor = std::make_unique<FullConvolutionMonitor>(network);
        break;
      case ControlScheme::AnalogSensor:
        monitor = std::make_unique<AnalogSensorMonitor>(network,
                                                        cfg.sensorDelay);
        break;
      case ControlScheme::None:
      case ControlScheme::PipelineDamping:
        break;
    }

    std::unique_ptr<ThresholdController> threshold;
    std::unique_ptr<PipelineDampingController> damping;
    if (monitor) {
        threshold = std::make_unique<ThresholdController>(cfg.control);
    } else if (cfg.scheme == ControlScheme::PipelineDamping) {
        damping = std::make_unique<PipelineDampingController>(
            cfg.dampingWindow, cfg.dampingDelta);
    }

    // Stagger stride: spread N actuation phases over one resonant
    // period, so the per-core actuation current steps cancel at the
    // resonance instead of adding. Core 0 is never delayed.
    const std::size_t cores = workloads.size();
    const double period_cycles =
        network.config().clockHz / network.config().resonantHz;
    const std::size_t stride =
        cfg.staggered ? std::max<std::size_t>(
                            1, static_cast<std::size_t>(period_cycles) /
                                   cores)
                      : 0;
    ActionHistory history(stride * (cores - 1));

    CosimResult result;
    result.scheme = controlSchemeName(cfg.scheme);
    result.minVoltage = network.config().nominalVoltage;
    result.maxVoltage = network.config().nominalVoltage;

    const Volt low_fault = network.lowFaultLevel();
    const Volt high_fault = network.highFaultLevel();
    const Volt low_safe = cfg.control.lowControl();
    const Volt high_safe = cfg.control.highControl();
    const Cycle budget = cfg.maxCycles != 0
                             ? cfg.maxCycles
                             : std::numeric_limits<Cycle>::max();

    CurrentTrace aggregate;
    if (cfg.varianceLevels > 0 && cfg.maxCycles != 0)
        reserveTraceCapacity(aggregate, cfg.maxCycles);
    double current_sum = 0.0;

    // The per-cycle loop, templated on the concrete monitor type: when
    // MonitorT is one of the final monitor classes the compiler
    // resolves monitor->update() statically and inlines it, removing
    // the per-cycle virtual dispatch behind fig15/table2. Instantiated
    // with the abstract VoltageMonitor when cfg.devirtualize is off,
    // which reproduces the per-cycle virtual path. The body is
    // identical either way, so results are bit-for-bit the same. The
    // cycle that exhausts the instruction streams completes in full.
    const auto loop = [&]<class MonitorT>(MonitorT *concrete_monitor) {
        for (bool running = true; running && result.cycles < budget;) {
            // Core i applies the decision from i*stride cycles ago,
            // made from the observations of the cycle before.
            for (std::size_t i = 0; i < cores; ++i) {
                const ControlActions &applied = history.slot(i * stride);
                machine.core(i).setStallIssue(applied.stallIssue);
                machine.core(i).setInjectNoops(applied.injectNoops);
            }
            const ControlActions &lead = history.slot(0);

            running = machine.step();
            const Amp current = machine.lastAggregateCurrent();
            const Volt true_voltage = supply.push(current);
            if (cfg.varianceLevels > 0)
                aggregate.push_back(current);

            ++result.cycles;
            current_sum += current;
            result.minVoltage = std::min(result.minVoltage, true_voltage);
            result.maxVoltage = std::max(result.maxVoltage, true_voltage);
            if (true_voltage < low_fault)
                ++result.lowFaults;
            if (true_voltage > high_fault)
                ++result.highFaults;

            // False positive: the lead (undelayed) actuation asserted
            // while the true voltage is comfortably inside the control
            // band.
            if ((lead.stallIssue && true_voltage > low_safe) ||
                (lead.injectNoops && true_voltage < high_safe))
                ++result.falsePositives;

            ControlActions decided;
            if (concrete_monitor) {
                Volt estimated =
                    concrete_monitor->update(current, true_voltage);
                if (hazard) {
                    hazard->push(current);
                    // Hazardous phase: behave as if the control band
                    // were wider by biasing the estimate
                    // pessimistically.
                    if (hazard->currentHazard() > cfg.hazardArmLevel) {
                        if (estimated < network.config().nominalVoltage)
                            estimated -= cfg.adaptiveExtraTolerance;
                        else
                            estimated += cfg.adaptiveExtraTolerance;
                    }
                }
                decided = threshold->decide(estimated);
            } else if (damping) {
                decided = damping->decide(current);
            }
            history.push(decided);
        }
    };
    if (!cfg.devirtualize) {
        loop(monitor.get());
    } else {
        // Monomorphize on the scheme's concrete (final) monitor class.
        switch (cfg.scheme) {
          case ControlScheme::Wavelet:
          case ControlScheme::AdaptiveWavelet:
            loop(static_cast<WaveletMonitor *>(monitor.get()));
            break;
          case ControlScheme::FullConvolution:
            loop(static_cast<FullConvolutionMonitor *>(monitor.get()));
            break;
          case ControlScheme::AnalogSensor:
            loop(static_cast<AnalogSensorMonitor *>(monitor.get()));
            break;
          case ControlScheme::None:
          case ControlScheme::PipelineDamping:
            loop(monitor.get()); // no monitor to devirtualize
            break;
        }
    }

    for (std::size_t i = 0; i < cores; ++i) {
        result.committed += machine.core(i).stats().committed;
        result.energyJ += machine.core(i).stats().totalEnergyJ;
    }
    result.meanCurrent =
        result.cycles ? current_sum / static_cast<double>(result.cycles)
                      : 0.0;
    if (threshold) {
        result.controlCycles = threshold->controlCycles();
        result.stallCycles = threshold->stallCycles();
        result.noopCycles = threshold->noopCycles();
    } else if (damping) {
        result.controlCycles = damping->controlCycles();
        result.stallCycles = damping->controlCycles();
    }

    // Per-scale variance of the aggregate stimulus: the in-phase vs
    // staggered contrast shows up as energy in the resonant octave.
    if (cfg.varianceLevels > 0 && aggregate.size() >= 64) {
        result.aggregateVariances = Modwt(WaveletBasis::haar())
            .waveletVariance(aggregate, cfg.varianceLevels);
        result.resonanceLevel = resonantOctave(
            period_cycles, result.aggregateVariances.size());
    }

    if (obs::metricsEnabled()) {
        auto &registry = obs::MetricsRegistry::global();
        static obs::Counter low_faults =
            registry.counter("controller.low_faults");
        static obs::Counter high_faults =
            registry.counter("controller.high_faults");
        static obs::Counter false_positives =
            registry.counter("controller.false_positives");
        low_faults.add(result.lowFaults);
        high_faults.add(result.highFaults);
        false_positives.add(result.falsePositives);
    }
    return result;
}

CosimResult
runClosedLoop(const BenchmarkProfile &profile, const ProcessorConfig &proc,
              const PowerModelConfig &power, const SupplyNetwork &network,
              const CosimConfig &cfg)
{
    const ChipWorkload one{&profile, cfg.seed};
    CosimConfig list_cfg = cfg;
    list_cfg.seed = 0;
    return runClosedLoop({&one, 1}, proc, power, network, list_cfg);
}

double
slowdown(const CosimResult &controlled, const CosimResult &baseline)
{
    if (baseline.cycles == 0)
        didt_panic("baseline run executed no cycles");
    return static_cast<double>(controlled.cycles) /
               static_cast<double>(baseline.cycles) -
           1.0;
}

} // namespace didt
