#include "runner/campaign.hh"

#include <cmath>

#include "runner/executor.hh"
#include "runner/plan.hh"
#include "wavelet/basis.hh"

namespace didt
{

const std::vector<BenchmarkProfile> &
CampaignSpec::effectiveProfiles() const
{
    return profiles.empty() ? spec2000Profiles() : profiles;
}

const std::vector<std::size_t> &
CampaignSpec::effectiveCoreCounts() const
{
    static const std::vector<std::size_t> uniprocessor{1};
    return coreCounts.empty() ? uniprocessor : coreCounts;
}

bool
CampaignSpec::isChipSweep() const
{
    if (!mixes.empty())
        return true;
    for (std::size_t cores : effectiveCoreCounts())
        if (cores != 1)
            return true;
    return false;
}

bool
CampaignSpec::validate(std::string *error) const
{
    const auto reject = [error](std::string message) {
        *error = std::move(message);
        return false;
    };
    if (impedanceScales.empty())
        return reject("spec field 'impedance_scales' must not be empty");
    for (double scale : impedanceScales)
        if (!std::isfinite(scale) || scale <= 0.0)
            return reject("spec field 'impedance_scales' must hold "
                          "positive finite numbers");
    if (windowLength == 0)
        return reject("spec field 'window' must be positive");
    if (levels == 0 || levels >= 64)
        return reject("spec field 'levels' must be in [1, 63], got " +
                      std::to_string(levels));
    if (windowLength % (std::size_t(1) << levels) != 0)
        return reject("spec field 'window' (" +
                      std::to_string(windowLength) +
                      ") must be divisible by 2^levels (2^" +
                      std::to_string(levels) + ")");
    if (!WaveletBasis::isKnownName(basis))
        return reject("unknown wavelet basis '" + basis + "' (try " +
                      WaveletBasis::knownNamesHint() + ")");
    if (!(lowThreshold < highThreshold))
        return reject("spec field 'low_threshold' must be below "
                      "'high_threshold'");
    if (!mixes.empty() && !profiles.empty())
        return reject("spec fields 'benchmarks' and 'mixes' are "
                      "mutually exclusive");
    if (l2Banks == 0 || (l2Banks & (l2Banks - 1)) != 0)
        return reject("spec field 'l2_banks' must be a power of two");
    if (isSampled() && sampleDetail == 0)
        return reject("spec field 'sample_detail' must be positive when "
                      "'sample_skip' is set");
    if (isSampled() && sampleWarmup > sampleSkip)
        return reject("spec field 'sample_warmup' must not exceed "
                      "'sample_skip'");
    if (mcDraws > 100000)
        return reject("spec field 'mc_draws' must not exceed 100000");
    for (double sigma : {mcSigmaR, mcSigmaResonance, mcSigmaQ})
        if (!(sigma >= 0.0 && sigma <= 1.0))
            return reject("spec fields 'mc_sigma_*' must be in [0, 1]");
    return true;
}

double
CampaignResult::rmsEstimationErrorPct() const
{
    double sq = 0.0;
    std::size_t ok = 0;
    for (const CampaignCell &cell : cells) {
        if (cell.failed)
            continue;
        const double err =
            cell.estimatedBelowPct - cell.measuredBelowPct;
        sq += err * err;
        ++ok;
    }
    return ok == 0 ? 0.0 : std::sqrt(sq / static_cast<double>(ok));
}

std::size_t
CampaignResult::failedCells() const
{
    std::size_t failed = 0;
    for (const CampaignCell &cell : cells)
        failed += cell.failed ? 1 : 0;
    return failed;
}

CampaignResult
runCharacterizationCampaign(const ExperimentSetup &setup,
                            const CampaignSpec &spec,
                            TraceRepository &repo, std::size_t jobs,
                            const std::function<void(const CampaignCell &)>
                                &on_cell,
                            const std::atomic<bool> *cancel)
{
    Executor executor(setup, repo, jobs);
    ExecutionHooks hooks;
    hooks.onCell = on_cell;
    hooks.cancel = cancel;
    return executor.run(buildCampaignPlan(spec), hooks);
}

} // namespace didt
