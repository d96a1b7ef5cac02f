/**
 * @file
 * Unit tests for the runner subsystem: ThreadPool exception
 * propagation and ordering, TraceRepository hit/miss accounting and
 * disk persistence, campaign result shape, and the JSON document
 * model (escaping, round-trip, strict parsing).
 */

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hh"
#include "runner/campaign.hh"
#include "runner/result_json.hh"
#include "runner/thread_pool.hh"
#include "runner/trace_repository.hh"
#include "util/simd.hh"

namespace didt
{
namespace
{

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, SubmitReturnsValues)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    auto a = pool.submit([] { return 7; });
    auto b = pool.submit([] { return std::string("didt"); });
    EXPECT_EQ(a.get(), 7);
    EXPECT_EQ(b.get(), "didt");
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture)
{
    ThreadPool pool(2);
    auto bad = pool.submit(
        []() -> int { throw std::runtime_error("cell failed"); });
    auto good = pool.submit([] { return 1; });
    EXPECT_THROW(bad.get(), std::runtime_error);
    // A throwing task must not take its worker down with it.
    EXPECT_EQ(good.get(), 1);
}

TEST(ThreadPool, ParallelForRethrowsAfterAllIterationsFinish)
{
    ThreadPool pool(3);
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.parallelFor(64,
                                  [&](std::size_t i) {
                                      ++ran;
                                      if (i == 13)
                                          throw std::runtime_error("13");
                                  }),
                 std::runtime_error);
    // Every iteration ran before the rethrow: no silently skipped work.
    EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, SingleWorkerRunsTasksInSubmissionOrder)
{
    ThreadPool pool(1);
    std::vector<int> order;
    std::vector<std::future<void>> pending;
    for (int i = 0; i < 50; ++i)
        pending.push_back(pool.submit([&order, i] { order.push_back(i); }));
    for (auto &f : pending)
        f.get();
    std::vector<int> expected(50);
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(order, expected);
}

TEST(ThreadPool, StressManySmallTasks)
{
    ThreadPool pool(8);
    std::atomic<long long> sum{0};
    std::vector<std::future<void>> pending;
    pending.reserve(2000);
    for (int i = 1; i <= 2000; ++i)
        pending.push_back(pool.submit([&sum, i] { sum += i; }));
    for (auto &f : pending)
        f.get();
    EXPECT_EQ(sum.load(), 2000LL * 2001 / 2);
}

TEST(ThreadPool, ResolveJobs)
{
    EXPECT_EQ(ThreadPool::resolveJobs(3), 3u);
    EXPECT_GE(ThreadPool::resolveJobs(0), 1u);
}

// ---------------------------------------------------------------------------
// TraceRepository
// ---------------------------------------------------------------------------

/** A deliberately tiny benchmark so repository tests stay fast. */
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

TEST(Fingerprint, SensitiveToEveryRequestField)
{
    TraceRequest base;
    base.profile = tinyProfile("fp", 1);
    const std::uint64_t h0 = fingerprintTraceRequest(base);
    EXPECT_EQ(fingerprintTraceRequest(base), h0) << "must be stable";

    TraceRequest r = base;
    r.instructions += 1;
    EXPECT_NE(fingerprintTraceRequest(r), h0);
    r = base;
    r.seed += 1;
    EXPECT_NE(fingerprintTraceRequest(r), h0);
    r = base;
    r.trimWarmup += 1;
    EXPECT_NE(fingerprintTraceRequest(r), h0);
    r = base;
    r.profile.seed += 1;
    EXPECT_NE(fingerprintTraceRequest(r), h0);
    r = base;
    r.profile.phases[0].hotProb += 0.001;
    EXPECT_NE(fingerprintTraceRequest(r), h0);
    r = base;
    r.profile.name = "fq";
    EXPECT_NE(fingerprintTraceRequest(r), h0);
}

TEST(TraceRepository, HitAndMissAccounting)
{
    TraceRepository repo(sharedSetup());
    const BenchmarkProfile prof = tinyProfile("acct", 11);

    const auto first = repo.get(prof, 3000);
    const auto second = repo.get(prof, 3000);
    const auto other = repo.get(prof, 2000);

    EXPECT_EQ(first.get(), second.get()) << "same trace object shared";
    EXPECT_NE(first.get(), other.get());

    const TraceCacheStats stats = repo.stats();
    EXPECT_EQ(stats.lookups, 3u);
    EXPECT_EQ(stats.memoryHits, 1u);
    EXPECT_EQ(stats.simulations, 2u);
    EXPECT_EQ(stats.diskLoads, 0u);
    EXPECT_EQ(repo.residentTraces(), 2u);
}

TEST(TraceRepository, ResidentBytesGaugeTracksInsertsWithoutBudget)
{
    TraceRepository repo(sharedSetup());
    ASSERT_EQ(repo.memoryBudgetBytes(), 0u);
    const auto trace = repo.get(tinyProfile("gauge", 12), 3000);
    ASSERT_GT(repo.residentBytes(), 0u);

    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::global().snapshot();
    const obs::MetricSnapshot *gauge = snap.find("repo.resident_bytes");
    ASSERT_NE(gauge, nullptr);
    EXPECT_EQ(gauge->value, static_cast<double>(repo.residentBytes()));
}

TEST(TraceRepository, ConcurrentRequestsSimulateOnce)
{
    TraceRepository repo(sharedSetup());
    const BenchmarkProfile prof = tinyProfile("conc", 12);

    ThreadPool pool(8);
    std::vector<std::future<std::shared_ptr<const CurrentTrace>>> got;
    for (int i = 0; i < 16; ++i)
        got.push_back(
            pool.submit([&] { return repo.get(prof, 3000); }));
    const auto reference = got[0].get();
    for (auto &f : got) {
        if (f.valid()) {
            EXPECT_EQ(f.get().get(), reference.get());
        }
    }

    const TraceCacheStats stats = repo.stats();
    EXPECT_EQ(stats.lookups, 16u);
    EXPECT_EQ(stats.simulations, 1u)
        << "concurrent misses of one key must simulate exactly once";
    EXPECT_EQ(stats.memoryHits, 15u);
}

TEST(TraceRepository, DiskPersistenceRoundTrip)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() / "didt_repo_test")
            .string();
    std::filesystem::remove_all(dir);
    const BenchmarkProfile prof = tinyProfile("disk", 13);

    CurrentTrace simulated;
    {
        TraceRepository repo(sharedSetup(), dir);
        simulated = *repo.get(prof, 3000);
        EXPECT_EQ(repo.stats().simulations, 1u);
        EXPECT_EQ(repo.stats().diskStores, 1u);
        EXPECT_TRUE(std::filesystem::exists(
            repo.cachePath(requestFor(prof, 3000))));
    }
    {
        TraceRepository repo(sharedSetup(), dir);
        const auto loaded = repo.get(prof, 3000);
        const TraceCacheStats stats = repo.stats();
        EXPECT_EQ(stats.simulations, 0u);
        EXPECT_EQ(stats.diskLoads, 1u);
        EXPECT_EQ(stats.diskStores, 0u);
        EXPECT_EQ(stats.diskCorrupt, 0u);
        EXPECT_EQ(*loaded, simulated) << "persisted trace bit-identical";
    }
    std::filesystem::remove_all(dir);
}

TEST(TraceRepository, CorruptCacheFileIsAMiss)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() / "didt_repo_corrupt")
            .string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const BenchmarkProfile prof = tinyProfile("corrupt", 14);

    TraceRepository repo(sharedSetup(), dir);
    {
        std::ofstream bad(repo.cachePath(requestFor(prof, 3000)),
                          std::ios::binary);
        bad << "not a trace";
    }
    const auto trace = repo.get(prof, 3000);
    EXPECT_FALSE(trace->empty());
    EXPECT_EQ(repo.stats().simulations, 1u)
        << "corrupt file must fall back to simulation";
    EXPECT_EQ(repo.stats().diskCorrupt, 1u)
        << "the rejected file must be counted";
    EXPECT_EQ(repo.stats().diskStores, 1u)
        << "the corrupt file must be rewritten";
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Campaign
// ---------------------------------------------------------------------------

CampaignSpec
tinySpec()
{
    CampaignSpec spec;
    spec.profiles = {tinyProfile("cell-a", 21), tinyProfile("cell-b", 22)};
    spec.impedanceScales = {1.0, 1.4};
    spec.windowLength = 64;
    spec.levels = 4;
    spec.instructions = 6000;
    return spec;
}

TEST(Campaign, ResultShapeAndCacheReuse)
{
    const CampaignSpec spec = tinySpec();
    TraceRepository repo(sharedSetup());
    const CampaignResult result =
        runCharacterizationCampaign(sharedSetup(), spec, repo, 2);

    ASSERT_EQ(result.cells.size(), 4u);
    EXPECT_EQ(result.jobs, 2u);
    // Benchmark-major, scale-minor ordering.
    EXPECT_EQ(result.cells[0].benchmark, "cell-a");
    EXPECT_DOUBLE_EQ(result.cells[0].impedanceScale, 1.0);
    EXPECT_EQ(result.cells[1].benchmark, "cell-a");
    EXPECT_DOUBLE_EQ(result.cells[1].impedanceScale, 1.4);
    EXPECT_EQ(result.cells[2].benchmark, "cell-b");
    EXPECT_EQ(result.cells[3].benchmark, "cell-b");

    for (const CampaignCell &cell : result.cells) {
        EXPECT_GT(cell.traceCycles, spec.windowLength);
        EXPECT_GT(cell.windows, 0u);
        EXPECT_GE(cell.measuredBelowPct, 0.0);
        EXPECT_LE(cell.measuredBelowPct, 100.0);
        EXPECT_GT(cell.measuredVariance, 0.0);
        EXPECT_GT(cell.estimatedVariance, 0.0);
    }

    // The sweep shares one trace per benchmark across both scales.
    EXPECT_EQ(result.cacheStats.lookups, 4u);
    EXPECT_EQ(result.cacheStats.simulations, 2u)
        << "each benchmark simulated exactly once";
    EXPECT_EQ(result.cacheStats.memoryHits, 2u);

    // A higher target impedance strictly degrades the voltage.
    EXPECT_GT(result.cells[1].measuredVariance,
              result.cells[0].measuredVariance);
}

TEST(Campaign, OutOfRangeScaleBecomesFailedCellNotAPanic)
{
    // 1e300 is a valid positive scale, but the supply it builds
    // overflows the voltage: the cell must fail with a reason and the
    // writer must still produce a parseable document.
    CampaignSpec spec = tinySpec();
    spec.profiles.resize(1);
    spec.impedanceScales = {1.0, 1e300};
    TraceRepository repo(sharedSetup());
    const CampaignResult result =
        runCharacterizationCampaign(sharedSetup(), spec, repo, 2);

    ASSERT_EQ(result.cells.size(), 2u);
    EXPECT_FALSE(result.cells[0].failed);
    EXPECT_TRUE(result.cells[1].failed);
    EXPECT_NE(result.cells[1].error.find("non-finite"), std::string::npos)
        << result.cells[1].error;
    EXPECT_EQ(result.failedCells(), 1u);
    const JsonValue doc = campaignToJson(result);
    EXPECT_TRUE(parseJson(doc.dump()) == doc);
}

TEST(Campaign, ValidateRejectsReversedThresholdsAndBadScales)
{
    std::string error;
    ASSERT_TRUE(tinySpec().validate(&error)) << error;

    CampaignSpec reversed = tinySpec();
    reversed.lowThreshold = 1.05;
    reversed.highThreshold = 0.9;
    EXPECT_FALSE(reversed.validate(&error));
    EXPECT_NE(error.find("low_threshold"), std::string::npos) << error;
    CampaignSpec parsed;
    EXPECT_FALSE(
        campaignSpecFromJson(campaignSpecToJson(reversed), &parsed, &error));
    TraceRepository repo(sharedSetup());
    EXPECT_THROW(
        runCharacterizationCampaign(sharedSetup(), reversed, repo, 1),
        std::invalid_argument);

    for (const double scale :
         {0.0, -1.0, std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::quiet_NaN()}) {
        CampaignSpec bad = tinySpec();
        bad.impedanceScales = {1.0, scale};
        EXPECT_FALSE(bad.validate(&error)) << scale;
        EXPECT_NE(error.find("impedance_scales"), std::string::npos)
            << error;
    }
    CampaignSpec empty = tinySpec();
    empty.impedanceScales.clear();
    EXPECT_FALSE(empty.validate(&error));
}

/** campaign.estimate_passes so far in this process. */
double
estimatePasses()
{
    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::global().snapshot();
    const obs::MetricSnapshot *passes =
        snap.find("campaign.estimate_passes");
    return passes ? passes->value : 0.0;
}

TEST(Campaign, EstimatedSideRunsOncePerWorkloadAndCoreCount)
{
    // A cell's estimated side depends on its trace and its scale's
    // nominal model only, so the executor runs it once per (workload,
    // core count) group for all scales, and Monte Carlo draws reuse it.
    CampaignSpec sweep = tinySpec();
    sweep.coreCounts = {1, 2};
    TraceRepository sweep_repo(sharedSetup());
    const double before = estimatePasses();
    const CampaignResult swept =
        runCharacterizationCampaign(sharedSetup(), sweep, sweep_repo, 2);
    ASSERT_EQ(swept.cells.size(), 8u);
    for (const CampaignCell &cell : swept.cells)
        EXPECT_FALSE(cell.failed) << cell.error;
    EXPECT_EQ(estimatePasses() - before, 2.0 * 2.0)
        << "2 workloads x 2 core counts";

    CampaignSpec mc = tinySpec();
    mc.mcDraws = 4;
    mc.mcSeed = 3;
    mc.mcSigmaR = 0.05;
    TraceRepository mc_repo(sharedSetup());
    const double mid = estimatePasses();
    const CampaignResult drawn =
        runCharacterizationCampaign(sharedSetup(), mc, mc_repo, 2);
    ASSERT_EQ(drawn.cells.size(), 16u);
    for (const CampaignCell &cell : drawn.cells)
        EXPECT_FALSE(cell.failed) << cell.error;
    EXPECT_EQ(estimatePasses() - mid, 2.0) << "2 workloads x 1 core count";
}

/** campaign.measure_passes so far in this process. */
double
measurePasses()
{
    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::global().snapshot();
    const obs::MetricSnapshot *passes =
        snap.find("campaign.measure_passes");
    return passes ? passes->value : 0.0;
}

TEST(Campaign, MeasurePassesArePerChunk)
{
    // A group's measured sides (scales x draws) run in chunks of at
    // most kMeasureLanes networks, one pass over the trace each.
    ASSERT_EQ(simd::kMeasureLanes, 8u);
    CampaignSpec sweep = tinySpec();
    sweep.coreCounts = {1, 2};
    TraceRepository sweep_repo(sharedSetup());
    const double before = measurePasses();
    const CampaignResult swept =
        runCharacterizationCampaign(sharedSetup(), sweep, sweep_repo, 2);
    for (const CampaignCell &cell : swept.cells)
        EXPECT_FALSE(cell.failed) << cell.error;
    EXPECT_EQ(measurePasses() - before, 4.0)
        << "4 groups of 2 scales: one chunk each";

    CampaignSpec mc = tinySpec();
    mc.mcDraws = 13;
    mc.mcSeed = 3;
    mc.mcSigmaR = 0.05;
    TraceRepository mc_repo(sharedSetup());
    const double mid = measurePasses();
    const CampaignResult drawn =
        runCharacterizationCampaign(sharedSetup(), mc, mc_repo, 3);
    ASSERT_EQ(drawn.cells.size(), 52u);
    for (const CampaignCell &cell : drawn.cells)
        EXPECT_FALSE(cell.failed) << cell.error;
    EXPECT_EQ(measurePasses() - mid, 2.0 * 4.0)
        << "2 groups of 2 scales x 13 draws: ceil(26 / 8) chunks each";
}

TEST(Campaign, GenericCellFanOutPreservesIndexOrder)
{
    const std::vector<int> out = runCampaignCells<int>(
        100, 4, [](std::size_t i) { return static_cast<int>(i * i); });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i * i));
}

TEST(Campaign, GenericCellFanOutPropagatesExceptions)
{
    EXPECT_THROW(runCampaignCells<int>(10, 4,
                                       [](std::size_t i) -> int {
                                           if (i == 7)
                                               throw std::runtime_error(
                                                   "cell 7");
                                           return 0;
                                       }),
                 std::runtime_error);
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

TEST(Json, EscapesControlAndSpecialCharacters)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, StringRoundTripThroughParser)
{
    const std::string nasty = "quote\" slash\\ nl\n tab\t ctl\x02 end";
    JsonValue v(nasty);
    const JsonValue back = parseJson(v.dump());
    EXPECT_EQ(back.asString(), nasty);
}

TEST(Json, NumberRoundTripIsExact)
{
    for (double x : {0.0, -1.0, 3.0, 0.1, -2.5e-7, 1.0 / 3.0,
                     123456789.123456789, 1e15, -1e-15}) {
        const JsonValue back = parseJson(JsonValue(x).dump());
        EXPECT_EQ(back.asNumber(), x) << "value " << x;
    }
}

TEST(Json, DocumentRoundTrip)
{
    JsonValue doc = JsonValue::object();
    doc.set("name", "didt \"campaign\"");
    doc.set("count", static_cast<long long>(42));
    doc.set("ratio", 0.9400000000000001);
    doc.set("ok", true);
    doc.set("missing", JsonValue());
    JsonValue arr = JsonValue::array();
    arr.push(1.0);
    arr.push("two");
    arr.push(false);
    JsonValue nested = JsonValue::object();
    nested.set("k", "v");
    arr.push(std::move(nested));
    doc.set("items", std::move(arr));

    const JsonValue back = parseJson(doc.dump());
    EXPECT_TRUE(back == doc);
    EXPECT_EQ(back.dump(), doc.dump()) << "writer is deterministic";
}

TEST(Json, ParserRejectsMalformedInput)
{
    EXPECT_THROW(parseJson(""), std::runtime_error);
    EXPECT_THROW(parseJson("{\"a\": }"), std::runtime_error);
    EXPECT_THROW(parseJson("[1, 2"), std::runtime_error);
    EXPECT_THROW(parseJson("\"unterminated"), std::runtime_error);
    EXPECT_THROW(parseJson("\"bad \\q escape\""), std::runtime_error);
    EXPECT_THROW(parseJson("12x"), std::runtime_error);
    EXPECT_THROW(parseJson("{} trailing"), std::runtime_error);
    EXPECT_THROW(parseJson("tru"), std::runtime_error);
}

TEST(Json, CampaignDocumentShape)
{
    const CampaignSpec spec = tinySpec();
    TraceRepository repo(sharedSetup());
    const CampaignResult result =
        runCharacterizationCampaign(sharedSetup(), spec, repo, 2);

    const JsonValue doc = campaignToJson(result);
    EXPECT_EQ(doc.find("schema")->asString(), "didt-campaign-v1");
    ASSERT_NE(doc.find("spec"), nullptr);
    EXPECT_EQ(doc.find("spec")->find("benchmarks")->items().size(), 2u);
    ASSERT_NE(doc.find("cache"), nullptr);
    EXPECT_EQ(doc.find("cache")->find("simulations")->asNumber(), 2.0);
    ASSERT_NE(doc.find("cells"), nullptr);
    EXPECT_EQ(doc.find("cells")->items().size(), 4u);
    const JsonValue &cell = doc.find("cells")->items()[0];
    EXPECT_EQ(cell.find("benchmark")->asString(), "cell-a");
    ASSERT_NE(cell.find("measured_below_pct"), nullptr);
    EXPECT_EQ(doc.find("timing"), nullptr)
        << "timing omitted by default for byte-stable output";

    // With timing requested the section appears.
    const JsonValue timed = campaignToJson(result, true);
    ASSERT_NE(timed.find("timing"), nullptr);
    EXPECT_EQ(timed.find("timing")->find("cell_ms")->items().size(), 4u);

    // And the whole document survives a parse round-trip.
    EXPECT_TRUE(parseJson(doc.dump()) == doc);
}

} // namespace
} // namespace didt
