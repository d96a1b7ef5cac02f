/**
 * @file
 * Equivalence guarantees for the zero-allocation analysis paths: reused
 * workspaces and caller-owned outputs must give the same bits as fresh
 * ones, the workspace-threaded model paths must match their allocating
 * forms, and campaign results must stay byte-identical regardless of
 * how many workers (and therefore how many reused per-worker
 * workspaces) run the sweep. Everything here uses EXPECT_EQ on doubles
 * on purpose: these paths preserve the exact floating-point
 * accumulation order, so approximate comparison would mask a
 * regression.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/emergency_estimator.hh"
#include "core/experiment.hh"
#include "core/variance_model.hh"
#include "power/stimulus.hh"
#include "power/supply_network.hh"
#include "runner/campaign.hh"
#include "runner/result_json.hh"
#include "runner/trace_repository.hh"
#include "util/rng.hh"
#include "wavelet/dwt.hh"
#include "wavelet/flat_decomposition.hh"
#include "wavelet/modwt.hh"
#include "wavelet/wavelet_stats.hh"

namespace didt
{
namespace
{

std::vector<double>
randomSignal(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> xs(n);
    for (auto &x : xs)
        x = rng.normal(40.0, 10.0);
    return xs;
}

SupplyNetwork
testNetwork()
{
    SupplyNetworkConfig cfg;
    cfg.clockHz = 3.0e9;
    cfg.resonantHz = 125.0e6;
    cfg.qualityFactor = 5.0;
    cfg.dcResistance = 3.0e-4;
    return SupplyNetwork(cfg);
}

// ---------------------------------------------------------------------------
// DWT workspaces
// ---------------------------------------------------------------------------

TEST(RefactorDwt, ReusedWorkspaceIsStateless)
{
    // A workspace warmed on one signal (and one shape) must not leak
    // state into the next transform: recomputing through a dirty
    // workspace gives the same bits as a fresh one.
    const Dwt dwt(WaveletBasis::daubechies4());
    FlatDecomposition dirty_dec;
    DwtWorkspace dirty_ws;
    dwt.forward(randomSignal(1024, 7), dwt.maxLevels(1024), dirty_dec,
                dirty_ws);

    const auto signal = randomSignal(256, 8);
    const std::size_t levels = dwt.maxLevels(signal.size());
    FlatDecomposition fresh_dec;
    DwtWorkspace fresh_ws;
    dwt.forward(signal, levels, fresh_dec, fresh_ws);
    dwt.forward(signal, levels, dirty_dec, dirty_ws);

    ASSERT_EQ(fresh_dec.totalCoefficients(),
              dirty_dec.totalCoefficients());
    const auto fresh = fresh_dec.coefficients();
    const auto dirty = dirty_dec.coefficients();
    for (std::size_t i = 0; i < fresh.size(); ++i)
        EXPECT_EQ(fresh[i], dirty[i]) << "coefficient " << i;
}

// ---------------------------------------------------------------------------
// MODWT
// ---------------------------------------------------------------------------

TEST(RefactorModwt, InPlaceWaveletVarianceMatchesAllocating)
{
    const Modwt modwt(WaveletBasis::daubechies4());
    const auto signal = randomSignal(300, 11);
    const std::size_t levels = 5;

    const std::vector<double> allocating =
        modwt.waveletVariance(signal, levels);
    std::vector<double> in_place(levels, -1.0);
    DwtWorkspace ws;
    modwt.waveletVariance(signal, levels, in_place, ws);

    ASSERT_EQ(allocating.size(), in_place.size());
    for (std::size_t j = 0; j < levels; ++j)
        EXPECT_EQ(allocating[j], in_place[j]) << "level " << j;
}

// ---------------------------------------------------------------------------
// Scale statistics
// ---------------------------------------------------------------------------

TEST(RefactorStats, ReusedStatsAreReset)
{
    // computeScaleStats writes into caller storage; stale contents of
    // a reused ScaleStats must not survive into the result.
    const Dwt dwt(WaveletBasis::haar());
    const auto signal = randomSignal(512, 13);
    FlatDecomposition dec;
    DwtWorkspace ws;
    dwt.forward(signal, dwt.maxLevels(signal.size()), dec, ws);

    ScaleStats fresh;
    computeScaleStats(dec, fresh);
    ScaleStats reused;
    reused.subbandVariance.assign(3, -7.0);
    reused.adjacentCorrelation.assign(20, 0.5);
    computeScaleStats(dec, reused);

    ASSERT_EQ(fresh.subbandVariance.size(), dec.levels());
    EXPECT_EQ(fresh.subbandVariance, reused.subbandVariance);
    EXPECT_EQ(fresh.adjacentCorrelation, reused.adjacentCorrelation);
    EXPECT_EQ(fresh.approximationVariance, reused.approximationVariance);
}

// ---------------------------------------------------------------------------
// Analysis model and trace profiling
// ---------------------------------------------------------------------------

TEST(RefactorModel, WorkspaceEstimateMatchesLegacyBitForBit)
{
    const SupplyNetwork net = testNetwork();
    VoltageVarianceModel model(net);
    model.calibrateAnalytic();

    AnalysisWorkspace ws;
    const std::vector<std::size_t> some_levels{2, 3, 4};
    for (std::uint64_t seed = 20; seed < 24; ++seed) {
        const auto window = randomSignal(model.windowLength(), seed);
        for (const bool correlated : {true, false}) {
            const WindowEstimate want =
                model.estimate(window, {}, correlated);
            WindowEstimate got;
            model.estimate(window, {}, correlated, got, ws);
            EXPECT_EQ(want.mean, got.mean);
            EXPECT_EQ(want.variance, got.variance);
        }
        const WindowEstimate want =
            model.estimate(window, some_levels, true);
        WindowEstimate got;
        model.estimate(window, some_levels, true, got, ws);
        EXPECT_EQ(want.mean, got.mean);
        EXPECT_EQ(want.variance, got.variance);
    }
}

TEST(RefactorModel, WorkspaceProfileTraceMatchesLegacyBitForBit)
{
    const SupplyNetwork net = testNetwork();
    VoltageVarianceModel model(net);
    model.calibrateAnalytic();

    Rng rng(21);
    const CurrentTrace trace =
        gaussianCurrent(40.0, 8.0, model.windowLength() * 16, rng);

    const EmergencyProfile want =
        profileTrace(trace, net, model, 0.97, 1.03);
    AnalysisWorkspace ws;
    const EmergencyProfile got =
        profileTrace(trace, net, model, 0.97, 1.03, ws);

    EXPECT_EQ(want.windows, got.windows);
    EXPECT_EQ(want.estimatedBelow, got.estimatedBelow);
    EXPECT_EQ(want.measuredBelow, got.measuredBelow);
    EXPECT_EQ(want.estimatedAbove, got.estimatedAbove);
    EXPECT_EQ(want.measuredAbove, got.measuredAbove);
    EXPECT_EQ(want.estimatedVariance, got.estimatedVariance);
    EXPECT_EQ(want.measuredVariance, got.measuredVariance);

    // Profiling a second trace through the same workspace must be
    // unaffected by the leftovers of the first.
    Rng rng2(22);
    const CurrentTrace second =
        gaussianCurrent(45.0, 5.0, model.windowLength() * 8, rng2);
    const EmergencyProfile want2 =
        profileTrace(second, net, model, 0.97, 1.03);
    const EmergencyProfile got2 =
        profileTrace(second, net, model, 0.97, 1.03, ws);
    EXPECT_EQ(want2.estimatedVariance, got2.estimatedVariance);
    EXPECT_EQ(want2.measuredVariance, got2.measuredVariance);
    EXPECT_EQ(want2.estimatedBelow, got2.estimatedBelow);
}

// ---------------------------------------------------------------------------
// Campaign byte-identity across job counts
// ---------------------------------------------------------------------------

BenchmarkProfile
refactorProfile(const std::string &name, std::uint64_t seed)
{
    BenchmarkProfile prof;
    prof.name = name;
    prof.seed = seed;
    WorkloadPhase phase;
    phase.lengthInsts = 5000;
    prof.phases = {phase};
    return prof;
}

TEST(RefactorCampaign, JsonByteIdenticalAcrossJobCounts)
{
    // The per-worker workspace striping means jobs=1 funnels every
    // cell through one workspace while jobs=4 spreads cells over four
    // plus the caller's slot. The serialized campaign must not be able
    // to tell the difference.
    static const ExperimentSetup setup = makeStandardSetup();
    CampaignSpec spec;
    spec.profiles = {refactorProfile("flat-a", 51),
                     refactorProfile("flat-b", 52),
                     refactorProfile("flat-c", 53)};
    spec.impedanceScales = {1.0, 1.3};
    spec.windowLength = 64;
    spec.levels = 4;
    spec.instructions = 6000;

    TraceRepository serial_repo(setup);
    const CampaignResult serial =
        runCharacterizationCampaign(setup, spec, serial_repo, 1);
    TraceRepository parallel_repo(setup);
    const CampaignResult parallel =
        runCharacterizationCampaign(setup, spec, parallel_repo, 4);

    EXPECT_EQ(campaignToJson(serial).dump(),
              campaignToJson(parallel).dump())
        << "shared workspaces must not leak state between cells";
}

} // namespace
} // namespace didt
