#include "core/monitor.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "wavelet/dwt.hh"
#include "wavelet/wavelet_stats.hh"

namespace didt
{

namespace
{

void
checkBlockSpans(std::span<const Amp> current,
                std::span<const Volt> true_voltage, std::span<Volt> out)
{
    if (current.size() != true_voltage.size() ||
        current.size() != out.size())
        didt_panic("updateBlock spans must have equal length: ",
                   current.size(), ", ", true_voltage.size(), ", ",
                   out.size());
}

} // namespace

void
VoltageMonitor::updateBlock(std::span<const Amp> current,
                            std::span<const Volt> true_voltage,
                            std::span<Volt> out)
{
    checkBlockSpans(current, true_voltage, out);
    for (std::size_t n = 0; n < current.size(); ++n)
        out[n] = update(current[n], true_voltage[n]);
}

WaveletMonitor::WaveletMonitor(const SupplyNetwork &network,
                               std::size_t terms, std::size_t window,
                               std::size_t levels)
    : WaveletMonitor(network.impulseResponse(),
                     network.config().nominalVoltage, terms, window,
                     levels)
{
}

WaveletMonitor::WaveletMonitor(std::span<const double> impulse_response,
                               Volt nominal, std::size_t terms,
                               std::size_t window, std::size_t levels)
    : nominal_(nominal),
      window_(window),
      levels_(levels)
{
    if (window_ == 0 || (window_ & (window_ - 1)) != 0)
        didt_fatal("WaveletMonitor window must be a power of two, got ",
                   window_);
    if (window_ % (std::size_t(1) << levels_) != 0)
        didt_fatal("window ", window_, " not divisible by 2^", levels_);
    if (terms == 0)
        didt_fatal("WaveletMonitor needs at least one term");

    // Weight derivation: droop[n] = sum_m z[m] i[n-m]. Writing the
    // chronological history window x[u] = i[n-W+1+u], the droop is the
    // inner product of x with the time-reversed impulse response, so
    // by orthonormality droop = <DWT(x), DWT(reversed z)>. The DWT of
    // the reversed response gives the weight of every coefficient.
    const std::span<const double> z = impulse_response;
    std::vector<double> reversed(window_, 0.0);
    for (std::size_t m = 0; m < window_ && m < z.size(); ++m)
        reversed[window_ - 1 - m] = z[m];
    for (std::size_t m = window_; m < z.size(); ++m)
        tailWeight_ += z[m];

    const Dwt dwt(WaveletBasis::haar());
    const FlatDecomposition gamma = dwt.forward(reversed, levels_);
    const std::vector<CoefficientRef> ranked = rankCoefficients(gamma);
    const std::span<const double> gamma_approx = gamma.approximation();

    // The approximation terms are always retained: they carry the IR
    // drop, and the paper's shift-register implementation (Figure 14)
    // computes the approximation term explicitly alongside the detail
    // terms. Remaining slots are filled by decreasing |weight|.
    const std::size_t keep = std::min(terms, ranked.size());
    terms_.reserve(keep);
    for (std::size_t k = 0; k < gamma_approx.size() && terms_.size() < keep; ++k)
        terms_.push_back(Term{levels_, k, gamma_approx[k]});
    for (const CoefficientRef &ref : ranked) {
        if (terms_.size() >= keep)
            break;
        if (ref.level == CoefficientRef::kApproximation)
            continue;
        terms_.push_back(Term{ref.level, ref.index, ref.value});
    }

    // Worst-case error: reconstruct the kept part of the kernel and
    // take the L1 norm of what was dropped.
    FlatDecomposition kept = gamma;
    const std::span<double> kept_coeffs = kept.coefficients();
    std::fill(kept_coeffs.begin(), kept_coeffs.end(), 0.0);
    for (const Term &t : terms_) {
        if (t.level == levels_)
            kept.approximation()[t.k] = gamma_approx[t.k];
        else
            kept.detail(t.level)[t.k] = gamma.detail(t.level)[t.k];
    }
    const std::vector<double> kept_kernel = dwt.inverse(kept);
    droppedL1_ = 0.0;
    for (std::size_t u = 0; u < window_; ++u)
        droppedL1_ += std::fabs(reversed[u] - kept_kernel[u]);

    cumRing_.assign(window_ + 1, 0.0);
}

double
WaveletMonitor::windowSum(std::size_t u1, std::size_t u2) const
{
    // The window is x[u] = i[n - W + 1 + u] with n = pushed_ - 1, so
    // the sum over [u1, u2) is C[n - W + u2] - C[n - W + u1].
    const std::size_t ring = window_ + 1;
    const std::uint64_t n = pushed_ - 1;
    const std::uint64_t hi = n - window_ + u2;
    const std::uint64_t lo = n - window_ + u1;
    return cumRing_[hi % ring] - cumRing_[lo % ring];
}

Volt
WaveletMonitor::update(Amp current, Volt /* true_voltage */)
{
    const std::size_t ring = window_ + 1;
    if (!primed_) {
        // Steady-state warm start: history as if `current` flowed
        // forever. Prefix sums become an arithmetic ramp.
        for (std::size_t k = 0; k < ring; ++k)
            cumRing_[k] = 0.0;
        // C[-1] = 0 at slot (ring - 1); we will immediately overwrite
        // slots as pushes come in; simulate W prior pushes of
        // `current`.
        pushed_ = 0;
        double cum = 0.0;
        for (std::size_t k = 0; k < window_; ++k) {
            cum += current;
            cumRing_[pushed_ % ring] = cum;
            ++pushed_;
        }
        primed_ = true;
    }

    const double prev = cumRing_[(pushed_ + ring - 1) % ring];
    cumRing_[pushed_ % ring] = prev + current;
    ++pushed_;

    double droop = 0.0;
    for (const Term &t : terms_) {
        double coeff;
        if (t.level == levels_) {
            const std::size_t s = std::size_t(1) << levels_;
            const std::size_t base = t.k * s;
            coeff = windowSum(base, base + s) /
                    std::sqrt(static_cast<double>(s));
        } else {
            const std::size_t s = std::size_t(1) << (t.level + 1);
            const std::size_t base = t.k * s;
            const double first = windowSum(base, base + s / 2);
            const double second = windowSum(base + s / 2, base + s);
            coeff = (first - second) / std::sqrt(static_cast<double>(s));
        }
        droop += t.weight * coeff;
    }

    // Response tail beyond the window: approximate the older history
    // by the window mean.
    droop += tailWeight_ * windowSum(0, window_) /
             static_cast<double>(window_);

    return nominal_ - droop;
}

void
WaveletMonitor::updateBlock(std::span<const Amp> current,
                            std::span<const Volt> true_voltage,
                            std::span<Volt> out)
{
    checkBlockSpans(current, true_voltage, out);
    // The qualified call on a final class devirtualizes and inlines:
    // one virtual dispatch per block instead of per cycle.
    for (std::size_t n = 0; n < current.size(); ++n)
        out[n] = WaveletMonitor::update(current[n], true_voltage[n]);
}

Volt
WaveletMonitor::maxError(Amp half_swing) const
{
    return droppedL1_ * half_swing;
}

FullConvolutionMonitor::FullConvolutionMonitor(const SupplyNetwork &network,
                                               double energy_fraction)
    : FullConvolutionMonitor(network.impulseResponse(),
                             network.config().nominalVoltage,
                             energy_fraction)
{
}

FullConvolutionMonitor::FullConvolutionMonitor(
    std::span<const double> impulse_response, Volt nominal,
    double energy_fraction)
    : nominal_(nominal),
      convolver_(truncateKernel(impulse_response, energy_fraction))
{
}

Volt
FullConvolutionMonitor::update(Amp current, Volt /* true_voltage */)
{
    convolver_.push(current);
    return nominal_ - convolver_.value();
}

void
FullConvolutionMonitor::updateBlock(std::span<const Amp> current,
                                    std::span<const Volt> true_voltage,
                                    std::span<Volt> out)
{
    checkBlockSpans(current, true_voltage, out);
    for (std::size_t n = 0; n < current.size(); ++n)
        out[n] = FullConvolutionMonitor::update(current[n],
                                                true_voltage[n]);
}

AnalogSensorMonitor::AnalogSensorMonitor(const SupplyNetwork &network,
                                         std::size_t delay_cycles)
    : ring_(std::max<std::size_t>(1, delay_cycles + 1),
            network.config().nominalVoltage)
{
}

Volt
AnalogSensorMonitor::update(Amp /* current */, Volt true_voltage)
{
    ring_[head_] = true_voltage;
    head_ = (head_ + 1) % ring_.size();
    ++pushed_;
    // The oldest entry in the ring is the delayed reading.
    return ring_[head_ % ring_.size()];
}

void
AnalogSensorMonitor::updateBlock(std::span<const Amp> current,
                                 std::span<const Volt> true_voltage,
                                 std::span<Volt> out)
{
    checkBlockSpans(current, true_voltage, out);
    for (std::size_t n = 0; n < current.size(); ++n)
        out[n] = AnalogSensorMonitor::update(current[n], true_voltage[n]);
}

} // namespace didt
