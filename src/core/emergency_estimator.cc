#include "core/emergency_estimator.hh"

#include "obs/scoped_timer.hh"
#include "util/logging.hh"
#include "util/simd.hh"

namespace didt
{

EmergencyProfile
profileTrace(const CurrentTrace &trace, const SupplyNetwork &network,
             const VoltageVarianceModel &model, Volt low_threshold,
             Volt high_threshold, std::span<const std::size_t> use_levels,
             bool use_correlation)
{
    AnalysisWorkspace ws;
    return profileTrace(trace, network, model, low_threshold,
                        high_threshold, ws, use_levels, use_correlation);
}

EmergencyProfile
profileTrace(const CurrentTrace &trace, const SupplyNetwork &network,
             const VoltageVarianceModel &model, Volt low_threshold,
             Volt high_threshold, AnalysisWorkspace &ws,
             std::span<const std::size_t> use_levels, bool use_correlation)
{
    obs::ScopedTimer span("model.profile_trace", obs::Histogram{},
                          nullptr, "core");
    EmergencyProfile profile;
    const VoltageVarianceModel *const models[] = {&model};
    estimateTraceSides(trace, models, low_threshold, high_threshold, ws,
                       {&profile, 1}, use_levels, use_correlation);
    measureTraceSide(trace, network, low_threshold, high_threshold, ws,
                     profile);
    return profile;
}

void
estimateTraceSides(const CurrentTrace &trace,
                   std::span<const VoltageVarianceModel *const> models,
                   Volt low_threshold, Volt high_threshold,
                   AnalysisWorkspace &ws, std::span<EmergencyProfile> out,
                   std::span<const std::size_t> use_levels,
                   bool use_correlation)
{
    if (models.empty() || out.size() != models.size())
        didt_panic("estimateTraceSides: ", models.size(), " models, ",
                   out.size(), " outputs");
    const VoltageVarianceModel &first = *models.front();
    const std::size_t window = first.windowLength();
    for (const VoltageVarianceModel *model : models)
        if (model->windowLength() != window ||
            model->levels() != first.levels() ||
            model->basis().name() != first.basis().name())
            didt_panic("estimateTraceSides: models differ in geometry");
    if (trace.size() < window)
        didt_panic("profileTrace: trace shorter than one window");
    obs::ScopedTimer span("analysis.estimate_side", obs::Histogram{},
                          nullptr, "core");

    // Consecutive windows, each contributing its Gaussian tail
    // probabilities (window-weighted average equals the predicted
    // fraction of cycles). The features depend on the window alone;
    // each model's three accumulators get the same pushes, in the same
    // order, as a one-model pass would give them.
    ws.sides.assign(3 * models.size(), RunningStats{});
    std::size_t windows = 0;
    const std::span<const double> samples(trace.data(), trace.size());
    for (std::size_t off = 0; off + window <= trace.size(); off += window) {
        first.extractFeatures(samples.subspan(off, window), use_correlation,
                              ws);
        for (std::size_t k = 0; k < models.size(); ++k) {
            models[k]->apply(use_levels, use_correlation, ws.est, ws);
            ws.sides[3 * k].push(ws.est.probBelow(low_threshold));
            ws.sides[3 * k + 1].push(ws.est.probAbove(high_threshold));
            ws.sides[3 * k + 2].push(ws.est.variance);
        }
        ++windows;
    }
    for (std::size_t k = 0; k < models.size(); ++k) {
        out[k].windows = windows;
        out[k].estimatedBelow = ws.sides[3 * k].mean();
        out[k].estimatedAbove = ws.sides[3 * k + 1].mean();
        out[k].estimatedVariance = ws.sides[3 * k + 2].mean();
    }
}

void
measureTraceSides(const CurrentTrace &trace,
                  std::span<const SupplyNetwork *const> networks,
                  Volt low_threshold, Volt high_threshold,
                  AnalysisWorkspace &ws, std::span<EmergencyProfile> out)
{
    if (out.size() != networks.size())
        didt_panic("measureTraceSides: ", networks.size(), " networks, ",
                   out.size(), " outputs");
    obs::ScopedTimer span("analysis.measure", obs::Histogram{}, nullptr,
                          "core");
    span.setArg("lanes", static_cast<long long>(networks.size()));
    // Exact convolution through every network at once, one network
    // per vector lane. Threshold counts are order-independent
    // integers; the biquad and the Welford variance recurrence are
    // sequential chains, and each stays scalar within its lane to keep
    // its rounding exact.
    ws.lanes.clear();
    for (const SupplyNetwork *network : networks) {
        const SupplyNetwork::Recursion &bq = network->recursion();
        ws.lanes.push_back({bq.b0, bq.b1, bq.a1, bq.a2,
                            network->config().nominalVoltage,
                            network->resistance()});
    }
    ws.measured.resize(networks.size());
    simd::kernels().measureNetworks(trace.data(), trace.size(),
                                    ws.lanes.data(), ws.lanes.size(),
                                    low_threshold, high_threshold,
                                    ws.measured.data());
    const double cycles = static_cast<double>(trace.size());
    for (std::size_t k = 0; k < networks.size(); ++k) {
        out[k].measuredBelow =
            static_cast<double>(ws.measured[k].below) / cycles;
        out[k].measuredAbove =
            static_cast<double>(ws.measured[k].above) / cycles;
        out[k].measuredVariance = ws.measured[k].variance;
    }
}

void
measureTraceSide(const CurrentTrace &trace, const SupplyNetwork &network,
                 Volt low_threshold, Volt high_threshold,
                 AnalysisWorkspace &ws, EmergencyProfile &profile)
{
    const SupplyNetwork *const networks[] = {&network};
    measureTraceSides(trace, networks, low_threshold, high_threshold, ws,
                      {&profile, 1});
}

} // namespace didt
