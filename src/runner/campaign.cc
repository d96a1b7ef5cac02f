#include "runner/campaign.hh"

#include <cmath>

#include "runner/executor.hh"
#include "runner/plan.hh"

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
CampaignSpec::checkGeometry(std::string *error) const
{
    if (windowLength == 0) {
        *error = "spec field 'window' must be positive";
        return false;
    }
    if (levels == 0 || levels >= 64) {
        *error = "spec field 'levels' must be in [1, 63], got " +
                 std::to_string(levels);
        return false;
    }
    if (windowLength % (std::size_t(1) << levels) != 0) {
        *error = "spec field 'window' (" + std::to_string(windowLength) +
                 ") must be divisible by 2^levels (2^" +
                 std::to_string(levels) + ")";
        return false;
    }
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
