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
 * regression. The estimated/measured split of profileTrace and the
 * executor's once-per-group estimated side are held to the same
 * standard, compared through std::bit_cast.
 */

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/emergency_estimator.hh"
#include "core/experiment.hh"
#include "core/variance_model.hh"
#include "power/stimulus.hh"
#include "power/supply_network.hh"
#include "power/variation.hh"
#include "runner/campaign.hh"
#include "runner/plan.hh"
#include "runner/result_json.hh"
#include "runner/trace_repository.hh"
#include "stats/running_stats.hh"
#include "util/json.hh"
#include "util/rng.hh"
#include "util/simd.hh"
#include "workload/profile.hh"
#include "verify/failpoint.hh"
#include "wavelet/basis.hh"
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

// ---------------------------------------------------------------------------
// Estimated side shared across scale models and Monte Carlo draws
// ---------------------------------------------------------------------------

/** The bits of @p x: equal bits, not merely equal values. */
std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

/** Issue noise with a 24-cycle pulse train on top, so every subband
 *  and both correlation terms see signal. */
CurrentTrace
pulsedTrace(std::size_t cycles, std::uint64_t seed)
{
    Rng rng(seed);
    CurrentTrace trace = gaussianCurrent(40.0, 6.0, cycles, rng);
    for (std::size_t n = 0; n < trace.size(); ++n)
        if ((n / 12) % 2 == 0)
            trace[n] += 15.0;
    return trace;
}

TEST(RefactorSides, EstimateTraceSidesMatchesProfileTracePerModel)
{
    // One pass over the trace for several scale models (features
    // extracted once per window, applied to each model) must give each
    // model the estimated side profileTrace gives it on its own.
    const std::vector<double> scales{1.0, 1.25, 1.5};
    std::vector<CurrentTrace> training;
    for (std::uint64_t seed = 60; seed < 63; ++seed)
        training.push_back(pulsedTrace(4096, seed));
    // A trailing partial window, which both paths must ignore.
    const CurrentTrace trace = pulsedTrace(256 * 24 + 77, 70);

    // Dirty workspaces: both carry state from the previous geometry.
    AnalysisWorkspace shared_ws;
    AnalysisWorkspace solo_ws;
    for (const std::string &name : WaveletBasis::allNames()) {
        for (const std::size_t window : {128u, 256u}) {
            std::vector<std::unique_ptr<SupplyNetwork>> nets;
            std::vector<std::unique_ptr<VoltageVarianceModel>> models;
            std::vector<const VoltageVarianceModel *> model_ptrs;
            for (const double scale : scales) {
                SupplyNetworkConfig cfg = testNetwork().config();
                cfg.impedanceScale = scale;
                nets.push_back(std::make_unique<SupplyNetwork>(cfg));
                models.push_back(std::make_unique<VoltageVarianceModel>(
                    *nets.back(), window, 4, WaveletBasis::byName(name)));
                models.back()->calibrateOnTraces(training);
                model_ptrs.push_back(models.back().get());
            }
            for (const bool correlated : {true, false}) {
                std::vector<EmergencyProfile> sides(scales.size());
                estimateTraceSides(trace, model_ptrs, 0.97, 1.03, shared_ws,
                                   sides, {}, correlated);
                for (std::size_t k = 0; k < scales.size(); ++k) {
                    const EmergencyProfile want =
                        profileTrace(trace, *nets[k], *models[k], 0.97,
                                     1.03, solo_ws, {}, correlated);
                    const EmergencyProfile &got = sides[k];
                    SCOPED_TRACE(name + " window " + std::to_string(window) +
                                 (correlated ? " rho" : " no-rho") +
                                 " scale " + std::to_string(scales[k]));
                    EXPECT_EQ(got.windows, trace.size() / window);
                    EXPECT_EQ(got.windows, want.windows);
                    EXPECT_EQ(bits(got.estimatedBelow),
                              bits(want.estimatedBelow));
                    EXPECT_EQ(bits(got.estimatedAbove),
                              bits(want.estimatedAbove));
                    EXPECT_EQ(bits(got.estimatedVariance),
                              bits(want.estimatedVariance));
                    // The measured side is not the estimated pass's to
                    // write.
                    EXPECT_EQ(bits(got.measuredVariance), bits(0.0));
                }
            }
        }
    }
}

TEST(RefactorSides, EstimateMatchesExtractThenApplyAcrossModels)
{
    // Features extracted by one model, applied by another of the same
    // geometry, give that other model's own estimate.
    SupplyNetworkConfig cfg = testNetwork().config();
    const SupplyNetwork net_a(cfg);
    cfg.impedanceScale = 1.5;
    const SupplyNetwork net_b(cfg);
    VoltageVarianceModel model_a(net_a);
    VoltageVarianceModel model_b(net_b);
    const std::vector<CurrentTrace> training{pulsedTrace(8192, 80)};
    model_a.calibrateOnTraces(training);
    model_b.calibrateOnTraces(training);

    AnalysisWorkspace ws;
    const std::vector<std::size_t> some_levels{1, 3, 5};
    for (std::uint64_t seed = 81; seed < 85; ++seed) {
        const auto window = randomSignal(model_b.windowLength(), seed);
        for (const bool correlated : {true, false}) {
            const WindowEstimate want =
                model_b.estimate(window, some_levels, correlated);
            model_a.extractFeatures(window, correlated, ws);
            WindowEstimate got;
            model_b.apply(some_levels, correlated, got, ws);
            EXPECT_EQ(bits(want.mean), bits(got.mean));
            EXPECT_EQ(bits(want.variance), bits(got.variance));
            ASSERT_EQ(want.contributions.size(), got.contributions.size());
            for (std::size_t j = 0; j < want.contributions.size(); ++j)
                EXPECT_EQ(bits(want.contributions[j]),
                          bits(got.contributions[j]));
        }
    }
}

const ExperimentSetup &
executorSetup()
{
    static const ExperimentSetup setup = makeStandardSetup();
    return setup;
}

/** Two workloads x two scales x three supply draws. */
CampaignSpec
monteCarloSpec()
{
    CampaignSpec spec;
    spec.profiles = {refactorProfile("mc-a", 61),
                     refactorProfile("mc-b", 62)};
    spec.impedanceScales = {1.0, 1.3};
    spec.windowLength = 64;
    spec.levels = 4;
    spec.instructions = 6000;
    spec.mcDraws = 3;
    spec.mcSeed = 7;
    spec.mcSigmaR = 0.08;
    spec.mcSigmaResonance = 0.08;
    spec.mcSigmaQ = 0.08;
    return spec;
}

/** One cell's result JSON, the bytes a campaign document carries. */
std::string
cellJson(const CampaignResult &result, std::size_t index)
{
    const JsonValue doc = campaignToJson(result);
    return doc.find("cells")->items().at(index).dump();
}

TEST(RefactorExecutor, MonteCarloCellMatchesStandaloneProfileTrace)
{
    const ExperimentSetup &setup = executorSetup();
    const CampaignSpec spec = monteCarloSpec();
    TraceRepository repo(setup);
    const CampaignResult result =
        runCharacterizationCampaign(setup, spec, repo, 2);
    const CampaignPlan plan = buildCampaignPlan(spec);
    const std::vector<CurrentTrace> training = calibrationTraces(setup);

    for (const PlanCell &pc : {PlanCell{1, 0, 1, 2}, PlanCell{0, 0, 0, 1}}) {
        const CampaignCell &cell = result.cells[plan.storageIndex(pc)];
        ASSERT_FALSE(cell.failed) << cell.error;
        const double scale = spec.impedanceScales[pc.scaleIndex];

        TraceRequest request;
        request.profile = spec.profiles[pc.profileIndex];
        request.instructions = spec.instructions;
        request.seed = spec.seed;
        request.trimWarmup = spec.trimWarmup;
        const auto trace = repo.get(request);
        const SupplyNetwork nominal = setup.makeNetwork(scale);
        VoltageVarianceModel model(nominal, spec.windowLength, spec.levels,
                                   WaveletBasis::byName(spec.basis));
        model.calibrateOnTraces(training);
        SupplyNetworkConfig varied =
            drawSupplyConfig(setup.supplyBase, spec.variation(),
                             deriveDrawSeed(spec.mcSeed, pc.drawIndex));
        varied.impedanceScale = scale;
        const SupplyNetwork drawn(varied);
        const EmergencyProfile want =
            profileTrace(*trace, drawn, model, spec.lowThreshold,
                         spec.highThreshold, {}, spec.useCorrelation);

        EXPECT_EQ(cell.traceCycles, trace->size());
        EXPECT_EQ(cell.windows, want.windows);
        EXPECT_EQ(bits(cell.estimatedBelowPct),
                  bits(100.0 * want.estimatedBelow));
        EXPECT_EQ(bits(cell.measuredBelowPct),
                  bits(100.0 * want.measuredBelow));
        EXPECT_EQ(bits(cell.estimatedAbovePct),
                  bits(100.0 * want.estimatedAbove));
        EXPECT_EQ(bits(cell.measuredAbovePct),
                  bits(100.0 * want.measuredAbove));
        EXPECT_EQ(bits(cell.estimatedVariance),
                  bits(want.estimatedVariance));
        EXPECT_EQ(bits(cell.measuredVariance), bits(want.measuredVariance));
    }
    // The standalone lookups hit the campaign's traces.
    EXPECT_EQ(repo.stats().simulations, 2u);
}


/** Restore CPU-probed SIMD dispatch when a test scope ends. */
struct LevelGuard
{
    ~LevelGuard() { simd::clearForcedLevel(); }
};

/** @p count networks at a spread of scales: nominal, or each a Monte
 *  Carlo draw (sigma 0.08 on R, resonance and Q). */
std::vector<SupplyNetwork>
spreadNetworks(std::size_t count, bool drawn)
{
    SupplyVariationSpec variation;
    variation.sigmaR = 0.08;
    variation.sigmaResonance = 0.08;
    variation.sigmaQ = 0.08;
    std::vector<SupplyNetwork> out;
    for (std::size_t k = 0; k < count; ++k) {
        SupplyNetworkConfig cfg = testNetwork().config();
        if (drawn)
            cfg = drawSupplyConfig(cfg, variation, deriveDrawSeed(7, k));
        cfg.impedanceScale = 1.0 + 0.1 * static_cast<double>(k);
        out.emplace_back(cfg);
    }
    return out;
}

TEST(RefactorSides, MeasureTraceSidesMatchesMeasureTraceSidePerNetwork)
{
    // One pass over the trace for many networks, one network per SIMD
    // lane, must give each network the voltage trace's own counts and
    // Welford variance. Network counts cover every remainder of the
    // 1-, 2- and 4-wide levels and a second block of kMeasureLanes;
    // trace lengths cover the first-sample seeding and a sampled trace.
    TraceRequest request;
    request.profile = profileByName("gzip");
    request.instructions = 40000;
    request.sampleDetail = 2048;
    request.sampleSkip = 8192;
    TraceRepository repo(executorSetup());
    std::vector<CurrentTrace> traces;
    for (const std::size_t cycles : {1u, 2u, 3u, 257u})
        traces.push_back(pulsedTrace(cycles, 90 + cycles));
    traces.push_back(*repo.get(request));

    std::vector<simd::Level> levels{simd::Level::Scalar};
    for (const simd::Level level :
         {simd::Level::Sse2, simd::Level::Avx2, simd::Level::Neon})
        if (simd::levelAvailable(level))
            levels.push_back(level);

    LevelGuard guard;
    AnalysisWorkspace ws;
    VoltageTrace voltage;
    std::uint64_t below_total = 0;
    std::uint64_t above_total = 0;
    for (const bool drawn : {false, true}) {
        for (const std::size_t count :
             {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 13u}) {
            const std::vector<SupplyNetwork> nets =
                spreadNetworks(count, drawn);
            std::vector<const SupplyNetwork *> ptrs;
            for (const SupplyNetwork &net : nets)
                ptrs.push_back(&net);
            for (const CurrentTrace &trace : traces) {
                // Thresholds either side of the first network's mean
                // voltage, so both counts see samples.
                nets.front().computeVoltageInto(trace, voltage);
                const double centre = mean(voltage);
                const double lo = centre - 1e-3;
                const double hi = centre + 1e-3;
                for (const simd::Level level : levels) {
                    simd::forceLevel(level);
                    std::vector<EmergencyProfile> got(count);
                    got.front().estimatedVariance = 42.0;
                    measureTraceSides(trace, ptrs, lo, hi, ws, got);
                    ASSERT_EQ(ws.measured.size(), count);
                    for (std::size_t k = 0; k < count; ++k) {
                        SCOPED_TRACE(std::string(simd::levelName(level)) +
                                     (drawn ? " drawn" : " nominal") +
                                     " networks " + std::to_string(count) +
                                     " lane " + std::to_string(k) +
                                     " cycles " +
                                     std::to_string(trace.size()));
                        nets[k].computeVoltageInto(trace, voltage);
                        std::uint64_t below = 0;
                        std::uint64_t above = 0;
                        RunningStats stats;
                        for (const Volt v : voltage) {
                            below += v < lo;
                            above += v > hi;
                            stats.push(v);
                        }
                        below_total += below;
                        above_total += above;
                        EXPECT_EQ(ws.measured[k].below, below);
                        EXPECT_EQ(ws.measured[k].above, above);
                        const double cycles =
                            static_cast<double>(trace.size());
                        EXPECT_EQ(bits(got[k].measuredBelow),
                                  bits(static_cast<double>(below) / cycles));
                        EXPECT_EQ(bits(got[k].measuredAbove),
                                  bits(static_cast<double>(above) / cycles));
                        EXPECT_EQ(bits(got[k].measuredVariance),
                                  bits(stats.variance()));

                        EmergencyProfile solo;
                        measureTraceSide(trace, nets[k], lo, hi, ws, solo);
                        EXPECT_EQ(bits(solo.measuredVariance),
                                  bits(got[k].measuredVariance));
                    }
                    // The estimated fields are not the measured pass's
                    // to write.
                    EXPECT_EQ(got.front().estimatedVariance, 42.0);
                }
            }
        }
    }
    EXPECT_GT(below_total, 0u);
    EXPECT_GT(above_total, 0u);
}

TEST(RefactorExecutor, ChunkedMonteCarloIsByteIdenticalAcrossJobCounts)
{
    // 5 scales x 13 draws = 65 measured sides in 9 chunks of at most
    // kMeasureLanes networks: neither the chunk count nor its members
    // are multiples of any vector width, and which worker leads which
    // chunk must not show in the bytes.
    const ExperimentSetup &setup = executorSetup();
    CampaignSpec spec = monteCarloSpec();
    spec.profiles.resize(1);
    spec.impedanceScales = {1.0, 1.1, 1.2, 1.35, 1.5};
    spec.mcDraws = 13;
    TraceRepository serial_repo(setup);
    const CampaignResult serial =
        runCharacterizationCampaign(setup, spec, serial_repo, 1);
    TraceRepository parallel_repo(setup);
    const CampaignResult parallel =
        runCharacterizationCampaign(setup, spec, parallel_repo, 4);
    ASSERT_EQ(serial.cells.size(), 65u);
    EXPECT_EQ(serial.failedCells(), 0u);
    EXPECT_EQ(campaignToJson(serial).dump(),
              campaignToJson(parallel).dump());
}

/** Every failpoint test starts and ends with a clean registry; a
 *  -DDIDT_FAILPOINTS=OFF build compiles the sites out, so there these
 *  tests skip. */
class RefactorExecutorFaults : public ::testing::Test
{
  protected:
    void SetUp() override
    {
#ifdef DIDT_FAILPOINTS_OFF
        GTEST_SKIP() << "built with -DDIDT_FAILPOINTS=OFF";
#endif
        verify::resetFailPoints();
    }
    void TearDown() override { verify::resetFailPoints(); }
};

TEST_F(RefactorExecutorFaults, FaultedFirstDrawLeavesItsGroupUnchanged)
{
    // The first cell submitted for mc-a (scale 1, draw 0) is the one
    // that would run the group's estimated side; faulting it hands the
    // pass to a later draw, and every other cell keeps its bytes.
    const ExperimentSetup &setup = executorSetup();
    const CampaignSpec spec = monteCarloSpec();
    TraceRepository clean_repo(setup);
    const CampaignResult clean =
        runCharacterizationCampaign(setup, spec, clean_repo, 1);

    const std::string key = "mc-a@" + jsonNumber(1.0) + "@d0";
    verify::armFailPoint("campaign.cell",
                         verify::TriggerPolicy::keyEquals(key));
    TraceRepository faulted_repo(setup);
    const CampaignResult faulted =
        runCharacterizationCampaign(setup, spec, faulted_repo, 1);

    ASSERT_EQ(clean.cells.size(), faulted.cells.size());
    std::size_t failed = 0;
    for (std::size_t i = 0; i < faulted.cells.size(); ++i) {
        if (faulted.cells[i].failed) {
            ++failed;
            EXPECT_EQ(faulted.cells[i].benchmark, "mc-a");
            EXPECT_EQ(faulted.cells[i].draw, 0u);
            continue;
        }
        EXPECT_EQ(cellJson(clean, i), cellJson(faulted, i)) << "cell " << i;
    }
    EXPECT_EQ(failed, 1u);
}

TEST_F(RefactorExecutorFaults, FailedFirstProductionStillFillsItsGroup)
{
    // The first trace production fails, so the first cell of that
    // workload's group fails before it reaches the estimated side; a
    // later cell of the group produces the trace again, runs the pass,
    // and every cell that did not fail carries the unfaulted bytes.
    const ExperimentSetup &setup = executorSetup();
    const CampaignSpec spec = monteCarloSpec();
    TraceRepository clean_repo(setup);
    const CampaignResult clean =
        runCharacterizationCampaign(setup, spec, clean_repo, 2);

    verify::armFailPoint("repo.produce", verify::TriggerPolicy::nthHit(1));
    TraceRepository faulted_repo(setup);
    const CampaignResult faulted =
        runCharacterizationCampaign(setup, spec, faulted_repo, 2);

    ASSERT_EQ(clean.cells.size(), faulted.cells.size());
    std::string failed_workload;
    std::size_t failed = 0;
    for (std::size_t i = 0; i < faulted.cells.size(); ++i) {
        if (faulted.cells[i].failed) {
            ++failed;
            failed_workload = faulted.cells[i].benchmark;
            EXPECT_NE(faulted.cells[i].error.find("repo.produce"),
                      std::string::npos)
                << faulted.cells[i].error;
            continue;
        }
        EXPECT_EQ(cellJson(clean, i), cellJson(faulted, i)) << "cell " << i;
    }
    ASSERT_GE(failed, 1u);
    std::size_t survivors = 0;
    for (const CampaignCell &cell : faulted.cells)
        if (cell.benchmark == failed_workload && !cell.failed)
            ++survivors;
    EXPECT_GT(survivors, 0u) << "the group's later cells must recover";
}

TEST_F(RefactorExecutorFaults, FaultedChunkLeaderLeavesItsChunkUnchanged)
{
    // One workload, 5 scales x 13 draws: member j of the group (scale
    // j / 13, draw j % 13) belongs to chunk j mod 9, so scale 1 draw 3
    // is the first member of chunk 3. Faulting it hands the chunk's
    // pass to a later member; every other cell keeps its bytes.
    const ExperimentSetup &setup = executorSetup();
    CampaignSpec spec = monteCarloSpec();
    spec.profiles.resize(1);
    spec.impedanceScales = {1.0, 1.1, 1.2, 1.35, 1.5};
    spec.mcDraws = 13;
    TraceRepository clean_repo(setup);
    const CampaignResult clean =
        runCharacterizationCampaign(setup, spec, clean_repo, 1);

    const std::string key = "mc-a@" + jsonNumber(1.0) + "@d3";
    verify::armFailPoint("campaign.cell",
                         verify::TriggerPolicy::keyEquals(key));
    for (const std::size_t jobs : {1u, 3u}) {
        TraceRepository faulted_repo(setup);
        const CampaignResult faulted =
            runCharacterizationCampaign(setup, spec, faulted_repo, jobs);
        ASSERT_EQ(clean.cells.size(), faulted.cells.size());
        std::size_t failed = 0;
        for (std::size_t i = 0; i < faulted.cells.size(); ++i) {
            if (faulted.cells[i].failed) {
                ++failed;
                EXPECT_EQ(faulted.cells[i].impedanceScale, 1.0);
                EXPECT_EQ(faulted.cells[i].draw, 3u);
                continue;
            }
            EXPECT_EQ(cellJson(clean, i), cellJson(faulted, i))
                << "cell " << i << " at jobs " << jobs;
        }
        EXPECT_EQ(failed, 1u);
    }
}

} // namespace
} // namespace didt
