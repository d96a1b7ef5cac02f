/**
 * @file
 * Tests for the verification subsystem: failpoint trigger policies and
 * spec parsing, fault injection through the trace repository / thread
 * pool / campaign (graceful degradation, not aborts), hardened trace
 * and JSON parsing, and the differential oracles against the paper's
 * tolerances.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "power/trace_io.hh"
#include "runner/campaign.hh"
#include "runner/result_json.hh"
#include "runner/thread_pool.hh"
#include "runner/trace_repository.hh"
#include "util/json.hh"
#include "verify/failpoint.hh"
#include "verify/oracle.hh"

namespace didt
{
namespace
{

using verify::TriggerPolicy;

/** Every failpoint test starts and ends with a clean registry. These
 *  tests prove faults *inject*, which a -DDIDT_FAILPOINTS=OFF build
 *  compiles out by design, so there they skip rather than fail. */
class FailPoints : public ::testing::Test
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

BenchmarkProfile
tinyProfile(const std::string &name, std::uint64_t seed)
{
    BenchmarkProfile prof;
    prof.name = name;
    prof.seed = seed;
    WorkloadPhase phase;
    phase.lengthInsts = 4000;
    prof.phases = {phase};
    return prof;
}

const ExperimentSetup &
sharedSetup()
{
    static const ExperimentSetup setup = makeStandardSetup();
    return setup;
}

/** The request TraceRepository::get(prof, instructions) resolves to. */
TraceRequest
requestFor(const BenchmarkProfile &prof, std::uint64_t instructions)
{
    TraceRequest request;
    request.profile = prof;
    request.instructions = instructions;
    return request;
}

/** The campaign.cell failpoint key of one cell (matches result JSON). */
std::string
cellKey(const std::string &benchmark, double scale)
{
    return benchmark + "@" + jsonNumber(scale);
}

// ---------------------------------------------------------------------------
// Trigger policies
// ---------------------------------------------------------------------------

TEST_F(FailPoints, UnarmedNeverFiresAndGateIsDown)
{
    EXPECT_FALSE(verify::failPointsArmed());
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(DIDT_FAILPOINT("test.unarmed"));
    // The gate stayed down, so the site was never even counted.
    EXPECT_EQ(verify::failPointStats("test.unarmed").hits, 0u);
}

TEST_F(FailPoints, AlwaysFiresEveryEvaluation)
{
    verify::armFailPoint("test.a", TriggerPolicy::always());
    EXPECT_TRUE(verify::failPointsArmed());
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(DIDT_FAILPOINT("test.a"));
    const verify::FailPointStats stats = verify::failPointStats("test.a");
    EXPECT_EQ(stats.hits, 5u);
    EXPECT_EQ(stats.fires, 5u);
}

TEST_F(FailPoints, NthHitFiresExactlyOnce)
{
    verify::armFailPoint("test.nth", TriggerPolicy::nthHit(3));
    std::vector<bool> fired;
    for (int i = 0; i < 6; ++i)
        fired.push_back(DIDT_FAILPOINT("test.nth"));
    EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false,
                                        false}));
    EXPECT_EQ(verify::failPointStats("test.nth").fires, 1u);
}

TEST_F(FailPoints, EveryKFiresPeriodically)
{
    verify::armFailPoint("test.k", TriggerPolicy::everyK(2));
    std::vector<bool> fired;
    for (int i = 0; i < 6; ++i)
        fired.push_back(DIDT_FAILPOINT("test.k"));
    EXPECT_EQ(fired,
              (std::vector<bool>{false, true, false, true, false, true}));
}

TEST_F(FailPoints, KeyEqualsFiresForExactlyThatKey)
{
    verify::armFailPoint("test.key",
                         TriggerPolicy::keyEquals("mcf@1.2"));
    EXPECT_FALSE(DIDT_FAILPOINT_KEYED("test.key", "gzip@1"));
    EXPECT_TRUE(DIDT_FAILPOINT_KEYED("test.key", "mcf@1.2"));
    EXPECT_FALSE(DIDT_FAILPOINT_KEYED("test.key", "mcf@1.3"));
    EXPECT_FALSE(DIDT_FAILPOINT("test.key")) << "keyless never matches";
}

TEST_F(FailPoints, KeyedProbabilityIsAPureFunctionOfTheKey)
{
    verify::armFailPoint("test.p", TriggerPolicy::probability(0.3, 42));
    // First sweep, in order.
    std::vector<bool> forward;
    for (int i = 0; i < 200; ++i)
        forward.push_back(
            DIDT_FAILPOINT_KEYED("test.p", "key" + std::to_string(i)));
    // Second sweep, reversed: schedule order must not matter.
    std::vector<bool> backward(200);
    for (int i = 199; i >= 0; --i)
        backward[static_cast<std::size_t>(i)] =
            DIDT_FAILPOINT_KEYED("test.p", "key" + std::to_string(i));
    EXPECT_EQ(forward, backward);

    const std::size_t fires = static_cast<std::size_t>(
        std::count(forward.begin(), forward.end(), true));
    EXPECT_GT(fires, 30u) << "rate far below p";
    EXPECT_LT(fires, 90u) << "rate far above p";

    // A different seed must pick a different subset.
    verify::armFailPoint("test.p", TriggerPolicy::probability(0.3, 43));
    std::vector<bool> reseeded;
    for (int i = 0; i < 200; ++i)
        reseeded.push_back(
            DIDT_FAILPOINT_KEYED("test.p", "key" + std::to_string(i)));
    EXPECT_NE(forward, reseeded);
}

TEST_F(FailPoints, ProbabilityZeroAndOneAreExact)
{
    verify::armFailPoint("test.p0", TriggerPolicy::probability(0.0, 1));
    verify::armFailPoint("test.p1", TriggerPolicy::probability(1.0, 1));
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(
            DIDT_FAILPOINT_KEYED("test.p0", std::to_string(i)));
        EXPECT_TRUE(DIDT_FAILPOINT_KEYED("test.p1", std::to_string(i)));
    }
}

TEST_F(FailPoints, DisarmAndResetClearState)
{
    verify::armFailPoint("test.x", TriggerPolicy::always());
    verify::armFailPoint("test.y", TriggerPolicy::always());
    EXPECT_EQ(verify::armedFailPoints(),
              (std::vector<std::string>{"test.x", "test.y"}));
    verify::disarmFailPoint("test.x");
    EXPECT_FALSE(DIDT_FAILPOINT("test.x"));
    EXPECT_TRUE(DIDT_FAILPOINT("test.y"));
    verify::resetFailPoints();
    EXPECT_FALSE(verify::failPointsArmed());
    EXPECT_TRUE(verify::armedFailPoints().empty());
}

TEST_F(FailPoints, SpecStringArmsSites)
{
    std::string error;
    ASSERT_TRUE(verify::armFailPointsFromSpec(
        "repo.disk_read=always;campaign.cell=key:mcf@1.2;"
        "pool.task=nth:4;json.parse=every:2;repo.produce=prob:0.25:7",
        &error))
        << error;
    EXPECT_EQ(verify::armedFailPoints().size(), 5u);
    EXPECT_TRUE(DIDT_FAILPOINT("repo.disk_read"));
    EXPECT_TRUE(DIDT_FAILPOINT_KEYED("campaign.cell", "mcf@1.2"));
    EXPECT_FALSE(DIDT_FAILPOINT_KEYED("campaign.cell", "mcf@1"));

    // "off" disarms a single site without touching the rest.
    ASSERT_TRUE(verify::armFailPointsFromSpec("repo.disk_read=off",
                                              &error))
        << error;
    EXPECT_FALSE(DIDT_FAILPOINT("repo.disk_read"));
    EXPECT_TRUE(DIDT_FAILPOINT_KEYED("campaign.cell", "mcf@1.2"));
}

TEST_F(FailPoints, MalformedSpecIsRejectedAtomically)
{
    std::string error;
    for (const char *bad :
         {"", "noequals", "site=", "site=bogus", "site=nth:", "site=nth:0",
          "site=nth:x", "site=every:0", "site=prob:", "site=prob:2",
          "site=prob:-0.1", "site=prob:0.5:junk", "=always",
          "good=always;bad"}) {
        error.clear();
        EXPECT_FALSE(verify::armFailPointsFromSpec(bad, &error))
            << "spec '" << bad << "' should be rejected";
        EXPECT_FALSE(error.empty()) << "spec '" << bad << "'";
    }
    // Nothing from the half-good spec leaked through.
    EXPECT_TRUE(verify::armedFailPoints().empty());
    EXPECT_FALSE(verify::failPointsArmed());
}

// ---------------------------------------------------------------------------
// Hardened trace parsing (the short-read / absurd-count bug class)
// ---------------------------------------------------------------------------

TEST(TraceIoHardening, TruncatedBinaryFileIsRejectedNotFatal)
{
    const std::string path =
        (std::filesystem::temp_directory_path() / "didt_trunc.trc")
            .string();
    CurrentTrace trace(1000);
    for (std::size_t i = 0; i < trace.size(); ++i)
        trace[i] = static_cast<double>(i) * 0.25;
    writeTraceBinary(path, trace);
    ASSERT_TRUE(tryReadTraceBinary(path).has_value());

    // Chop off the tail: header says 1000 samples, file holds fewer.
    const auto full = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, full - 123);
    EXPECT_FALSE(tryReadTraceBinary(path).has_value())
        << "short read must be a miss, not a short trace";

    // Chop into the header itself.
    std::filesystem::resize_file(path, 10);
    EXPECT_FALSE(tryReadTraceBinary(path).has_value());
    std::filesystem::remove(path);
}

TEST(TraceIoHardening, AbsurdSampleCountDoesNotAllocate)
{
    // Valid magic, then a count claiming ~2^60 samples with 8 bytes of
    // data behind it. The reader must fail cleanly (and quickly): the
    // old implementation allocated count * 8 bytes up front and threw
    // bad_alloc out of the "non-throwing" reader.
    std::ostringstream raw;
    raw.write("DIDTTRC1", 8);
    const std::uint64_t count = std::uint64_t{1} << 60;
    raw.write(reinterpret_cast<const char *>(&count), sizeof(count));
    const double sample = 1.0;
    raw.write(reinterpret_cast<const char *>(&sample), sizeof(sample));
    std::istringstream in(raw.str());
    EXPECT_FALSE(tryReadTraceBinary(in).has_value());
}

TEST(TraceIoHardening, StreamRoundTripAndBadMagic)
{
    std::istringstream bad("XXXXXXXX\0\0\0\0\0\0\0\0");
    EXPECT_FALSE(tryReadTraceBinary(bad).has_value());

    std::istringstream text("1.0 2.0\n# comment\n3.0\n");
    const auto parsed = tryReadTraceText(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, (CurrentTrace{1.0, 2.0, 3.0}));

    std::istringstream malformed("1.0\nnope\n");
    EXPECT_FALSE(tryReadTraceText(malformed).has_value());
}

TEST_F(FailPoints, TraceReaderFailpointsForceAMiss)
{
    verify::armFailPoint("trace_io.read_binary",
                         TriggerPolicy::always());
    verify::armFailPoint("trace_io.read_text", TriggerPolicy::always());
    std::istringstream text("1.0\n");
    EXPECT_FALSE(tryReadTraceText(text).has_value());
    std::ostringstream raw;
    raw.write("DIDTTRC1", 8);
    const std::uint64_t count = 0;
    raw.write(reinterpret_cast<const char *>(&count), sizeof(count));
    std::istringstream bin(raw.str());
    EXPECT_FALSE(tryReadTraceBinary(bin).has_value());
}

// ---------------------------------------------------------------------------
// Hardened JSON parsing
// ---------------------------------------------------------------------------

TEST(JsonHardening, DeepNestingIsAParseErrorNotAStackOverflow)
{
    const std::string deep(3000, '[');
    EXPECT_THROW((void)parseJson(deep), std::runtime_error);
    // At the boundary: 255 levels still parse.
    std::string ok(255, '[');
    ok += "1";
    ok += std::string(255, ']');
    EXPECT_NO_THROW((void)parseJson(ok));
}

TEST(JsonHardening, OutOfRangeNumbersAreRejected)
{
    // "1e999" -> inf under strtod; accepting it would make the parsed
    // document unserializable (the writer panics on non-finite).
    EXPECT_THROW((void)parseJson("1e999"), std::runtime_error);
    EXPECT_THROW((void)parseJson("[-1e999]"), std::runtime_error);
    EXPECT_NO_THROW((void)parseJson("1e308"));
}

TEST_F(FailPoints, JsonParseFailpointThrowsParseError)
{
    verify::armFailPoint("json.parse", TriggerPolicy::nthHit(2));
    EXPECT_NO_THROW((void)parseJson("{}"));
    EXPECT_THROW((void)parseJson("{}"), std::runtime_error);
    EXPECT_NO_THROW((void)parseJson("{}"));
}

// ---------------------------------------------------------------------------
// ThreadPool fault injection
// ---------------------------------------------------------------------------

TEST_F(FailPoints, PoolTaskFaultReachesTheFutureAndSparesTheWorker)
{
    ThreadPool pool(1);
    verify::armFailPoint("pool.task", TriggerPolicy::nthHit(1));
    auto faulted = pool.submit([] { return 1; });
    auto healthy = pool.submit([] { return 2; });
    EXPECT_THROW(
        {
            try {
                faulted.get();
            } catch (const std::runtime_error &e) {
                EXPECT_STREQ(e.what(), "injected fault (pool.task)");
                throw;
            }
        },
        std::runtime_error);
    // The worker that ran the faulting task is still alive.
    EXPECT_EQ(healthy.get(), 2);
    EXPECT_EQ(verify::failPointStats("pool.task").fires, 1u);
}

// ---------------------------------------------------------------------------
// TraceRepository fault injection
// ---------------------------------------------------------------------------

TEST_F(FailPoints, InjectedDiskReadFaultFallsBackToSimulation)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() / "didt_verify_repo")
            .string();
    std::filesystem::remove_all(dir);
    const BenchmarkProfile prof = tinyProfile("vread", 31);

    {
        TraceRepository warm(sharedSetup(), dir);
        (void)warm.get(prof, 3000);
        ASSERT_EQ(warm.stats().diskStores, 1u);
    }
    verify::armFailPoint("repo.disk_read", TriggerPolicy::always());
    TraceRepository repo(sharedSetup(), dir);
    const auto trace = repo.get(prof, 3000);
    EXPECT_FALSE(trace->empty());
    const TraceCacheStats stats = repo.stats();
    EXPECT_EQ(stats.diskLoads, 0u);
    EXPECT_EQ(stats.diskCorrupt, 1u)
        << "the injected unreadable file must be counted as corrupt";
    EXPECT_EQ(stats.simulations, 1u) << "and recomputed";
    std::filesystem::remove_all(dir);
}

TEST_F(FailPoints, TruncatedCacheFileFallsBackToSimulation)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() / "didt_verify_trunc")
            .string();
    std::filesystem::remove_all(dir);
    const BenchmarkProfile prof = tinyProfile("vtrunc", 32);
    CurrentTrace first;
    std::string cached;
    {
        TraceRepository warm(sharedSetup(), dir);
        first = *warm.get(prof, 3000);
        cached = warm.cachePath(requestFor(prof, 3000));
        ASSERT_TRUE(std::filesystem::exists(cached));
    }
    // Simulate a writer that died mid-store.
    std::filesystem::resize_file(
        cached, std::filesystem::file_size(cached) - 64);

    TraceRepository repo(sharedSetup(), dir);
    const auto trace = repo.get(prof, 3000);
    const TraceCacheStats stats = repo.stats();
    EXPECT_EQ(stats.diskCorrupt, 1u);
    EXPECT_EQ(stats.simulations, 1u);
    EXPECT_EQ(stats.diskStores, 1u) << "the bad file must be replaced";
    EXPECT_EQ(*trace, first) << "recomputed trace is bit-identical";
    // The rewritten file is whole again.
    EXPECT_TRUE(tryReadTraceBinary(cached).has_value());
    std::filesystem::remove_all(dir);
}

TEST_F(FailPoints, InjectedWriteFaultSkipsTheStoreButServesTheTrace)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() / "didt_verify_wfault")
            .string();
    std::filesystem::remove_all(dir);
    verify::armFailPoint("repo.disk_write", TriggerPolicy::always());
    const BenchmarkProfile prof = tinyProfile("vwrite", 33);
    TraceRepository repo(sharedSetup(), dir);
    const auto trace = repo.get(prof, 3000);
    EXPECT_FALSE(trace->empty());
    EXPECT_EQ(repo.stats().diskStores, 0u);
    EXPECT_FALSE(std::filesystem::exists(
        repo.cachePath(requestFor(prof, 3000))));
    std::filesystem::remove_all(dir);
}

TEST_F(FailPoints, FailedProducerIsEvictedSoLaterGetsRetry)
{
    verify::armFailPoint("repo.produce", TriggerPolicy::nthHit(1));
    const BenchmarkProfile prof = tinyProfile("vretry", 34);
    TraceRepository repo(sharedSetup());
    EXPECT_THROW((void)repo.get(prof, 3000), std::runtime_error);
    // The failed production must not be cached: the next get elects a
    // fresh producer and succeeds.
    const auto trace = repo.get(prof, 3000);
    EXPECT_FALSE(trace->empty());
    EXPECT_EQ(repo.stats().simulations, 1u);
}

// ---------------------------------------------------------------------------
// Campaign fault injection: failed cells, not aborts
// ---------------------------------------------------------------------------

CampaignSpec
tinySpec()
{
    CampaignSpec spec;
    spec.profiles = {tinyProfile("cell-a", 21),
                     tinyProfile("cell-b", 22)};
    spec.impedanceScales = {1.0, 1.5};
    spec.windowLength = 64;
    spec.levels = 4;
    spec.instructions = 6000;
    return spec;
}

TEST_F(FailPoints, CampaignRecordsFailedCellsAndKeepsGoing)
{
    const CampaignSpec spec = tinySpec();
    verify::armFailPoint(
        "campaign.cell",
        TriggerPolicy::keyEquals(cellKey("cell-b", 1.5)));

    TraceRepository repo(sharedSetup());
    const CampaignResult result =
        runCharacterizationCampaign(sharedSetup(), spec, repo, 2);

    ASSERT_EQ(result.cells.size(), 4u);
    EXPECT_EQ(result.failedCells(), 1u);
    std::size_t failed_seen = 0;
    for (const CampaignCell &cell : result.cells) {
        EXPECT_FALSE(cell.benchmark.empty());
        if (cell.failed) {
            ++failed_seen;
            EXPECT_EQ(cell.benchmark, "cell-b");
            EXPECT_DOUBLE_EQ(cell.impedanceScale, 1.5);
            EXPECT_NE(cell.error.find("campaign.cell"),
                      std::string::npos);
            EXPECT_EQ(cell.windows, 0u);
        } else {
            EXPECT_GT(cell.windows, 0u);
            EXPECT_TRUE(cell.error.empty());
        }
    }
    EXPECT_EQ(failed_seen, 1u);

    // rmsEstimationErrorPct skips the failed cell instead of folding
    // its zeroed measurements into the mean.
    EXPECT_GE(result.rmsEstimationErrorPct(), 0.0);

    const JsonValue doc = campaignToJson(result, false);
    const JsonValue *failed_cells = doc.find("failed_cells");
    ASSERT_NE(failed_cells, nullptr);
    EXPECT_DOUBLE_EQ(failed_cells->asNumber(), 1.0);
    std::size_t marked = 0;
    for (const JsonValue &cell : doc.find("cells")->items()) {
        const JsonValue *failed = cell.find("failed");
        if (!failed)
            continue;
        ++marked;
        EXPECT_TRUE(failed->asBool());
        ASSERT_NE(cell.find("error"), nullptr);
        EXPECT_FALSE(cell.find("error")->asString().empty());
        EXPECT_EQ(cell.find("benchmark")->asString(), "cell-b");
    }
    EXPECT_EQ(marked, 1u);
}

TEST(CampaignJson, CleanCampaignCarriesNoFailureFields)
{
    TraceRepository repo(sharedSetup());
    const CampaignResult result =
        runCharacterizationCampaign(sharedSetup(), tinySpec(), repo, 2);
    EXPECT_EQ(result.failedCells(), 0u);
    const JsonValue doc = campaignToJson(result, false);
    EXPECT_EQ(doc.find("failed_cells"), nullptr)
        << "clean campaigns keep the pre-failpoint JSON shape";
    for (const JsonValue &cell : doc.find("cells")->items())
        EXPECT_EQ(cell.find("failed"), nullptr);
}

TEST_F(FailPoints, ProducerFaultFailsOnlyThatBenchmarksCells)
{
    const CampaignSpec spec = tinySpec();
    verify::armFailPoint("repo.produce",
                         TriggerPolicy::keyEquals("cell-a"));
    TraceRepository repo(sharedSetup());
    const CampaignResult result =
        runCharacterizationCampaign(sharedSetup(), spec, repo, 2);
    ASSERT_EQ(result.cells.size(), 4u);
    EXPECT_EQ(result.failedCells(), 2u);
    for (const CampaignCell &cell : result.cells) {
        EXPECT_EQ(cell.failed, cell.benchmark == "cell-a");
        if (cell.failed) {
            EXPECT_NE(cell.error.find("repo.produce"),
                      std::string::npos);
        }
    }
}

TEST_F(FailPoints, PoolTaskFaultLandsInTheRightCell)
{
    // At --jobs 1 every task evaluates pool.task exactly once, in
    // submission order: the calibration builders, one calibration task
    // per scale, then the sweep (scale-major). Target the first sweep
    // task; it must surface as that cell's failure via the campaign's
    // outer future handler, not abort the run.
    const CampaignSpec spec = tinySpec();
    const std::size_t warmup_tasks =
        calibrationTraceBuilders(sharedSetup()).size() +
        spec.impedanceScales.size();
    verify::armFailPoint(
        "pool.task",
        TriggerPolicy::nthHit(warmup_tasks + 1));
    TraceRepository repo(sharedSetup());
    const CampaignResult result =
        runCharacterizationCampaign(sharedSetup(), spec, repo, 1);
    ASSERT_EQ(result.cells.size(), 4u);
    EXPECT_EQ(result.failedCells(), 1u);
    const CampaignCell &failed = result.cells[0]; // cell-a @ 1.0
    EXPECT_TRUE(failed.failed);
    EXPECT_EQ(failed.benchmark, "cell-a");
    EXPECT_DOUBLE_EQ(failed.impedanceScale, 1.0);
    EXPECT_NE(failed.error.find("pool.task"), std::string::npos);
}

TEST_F(FailPoints, FaultedCampaignIsByteIdenticalAcrossJobCounts)
{
    const CampaignSpec spec = tinySpec();
    const std::string dir =
        (std::filesystem::temp_directory_path() / "didt_verify_det")
            .string();
    std::filesystem::remove_all(dir);

    const auto run = [&](std::size_t jobs) {
        std::string error;
        verify::resetFailPoints();
        EXPECT_TRUE(verify::armFailPointsFromSpec(
            "campaign.cell=key:" + cellKey("cell-b", 1.5) +
                ";repo.disk_write=always",
            &error))
            << error;
        TraceRepository repo(sharedSetup(), dir);
        const CampaignResult result = runCharacterizationCampaign(
            sharedSetup(), spec, repo, jobs);
        EXPECT_EQ(repo.stats().diskStores, 0u);
        return campaignToJson(result, false).dump();
    };

    const std::string serial = run(1);
    const std::string parallel = run(4);
    EXPECT_EQ(serial, parallel)
        << "injected faults must not break --jobs byte-identity";
    EXPECT_NE(serial.find("\"failed_cells\": 1"), std::string::npos);
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Differential oracles
// ---------------------------------------------------------------------------

TEST(Oracle, MeasureDivergence)
{
    const std::vector<double> a{1.0, 2.0, 3.0};
    const std::vector<double> b{1.0, 2.5, 2.0};
    const verify::Divergence d = verify::measureDivergence(a, b);
    EXPECT_DOUBLE_EQ(d.maxAbs, 1.0);
    EXPECT_NEAR(d.rms, std::sqrt((0.25 + 1.0) / 3.0), 1e-12);
    EXPECT_EQ(d.samples, 3u);
}

TEST(Oracle, MonitorTracksExactConvolutionWithinItsBound)
{
    const ExperimentSetup &setup = sharedSetup();
    const SupplyNetwork network = setup.makeNetwork(1.0);
    const CurrentTrace trace = virusCurrentTrace(setup, 8192);
    const verify::Oracle oracle(setup);
    const verify::MonitorOracleReport report =
        oracle.checkMonitor(network, trace, 13);
    EXPECT_EQ(report.divergence.samples, trace.size());
    EXPECT_GT(report.bound, 0.0);
    EXPECT_TRUE(report.pass)
        << "max divergence " << report.divergence.maxAbs
        << " V exceeds bound " << report.bound << " V";
    // More terms must not hurt: the bound shrinks and still holds.
    const verify::MonitorOracleReport more =
        oracle.checkMonitor(network, trace, 40);
    EXPECT_LE(more.bound, report.bound);
    EXPECT_TRUE(more.pass);
}

TEST(Oracle, VarianceModelTracksMeasuredStatistics)
{
    const ExperimentSetup &setup = sharedSetup();
    const SupplyNetwork network = setup.makeNetwork(1.0);
    const VoltageVarianceModel model =
        makeCalibratedModel(setup, network, 128, 6);
    // Judge the model the way the paper does (Figures 9/12): on
    // benchmark-like workloads, not on the adversarial dI/dt viruses
    // in its own training suite.
    std::vector<CurrentTrace> traces;
    for (std::uint64_t seed : {61, 62, 63})
        traces.push_back(benchmarkCurrentTrace(
            setup, tinyProfile("oracle-var-" + std::to_string(seed),
                               seed),
            30000, 0, 4096));
    const verify::Oracle oracle(setup);
    const verify::VarianceOracleReport report =
        oracle.checkVarianceModel(network, model, traces);
    EXPECT_EQ(report.traces, traces.size());
    EXPECT_TRUE(report.pass)
        << "worst variance rel error " << report.maxVarianceRelError
        << ", worst emergency error " << report.maxEmergencyPctError
        << " pct points";
    EXPECT_LE(report.rmsVarianceRelError, report.maxVarianceRelError);
}

TEST(Oracle, EverySchemeMatchesItsPerCycleReference)
{
    const ExperimentSetup &setup = sharedSetup();
    const SupplyNetwork network = setup.makeNetwork(1.0);
    const VoltageVarianceModel hazard =
        makeCalibratedModel(setup, network, 128, 6);
    const BenchmarkProfile prof = tinyProfile("oracle-sch", 55);
    const verify::Oracle oracle(setup);
    for (ControlScheme scheme :
         {ControlScheme::None, ControlScheme::Wavelet,
          ControlScheme::FullConvolution, ControlScheme::AnalogSensor,
          ControlScheme::PipelineDamping,
          ControlScheme::AdaptiveWavelet}) {
        const verify::SchemeOracleReport report = oracle.checkScheme(
            scheme, prof, network, 8000,
            scheme == ControlScheme::AdaptiveWavelet ? &hazard
                                                     : nullptr);
        EXPECT_TRUE(report.pass)
            << report.scheme << ": devirtualized match="
            << report.devirtualizedMatchesReference
            << " committedAll=" << report.committedAll;
        EXPECT_EQ(report.scheme, controlSchemeName(scheme));
    }
}

} // namespace
} // namespace didt
