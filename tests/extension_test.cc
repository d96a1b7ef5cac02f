/**
 * @file
 * Tests for the library extensions beyond the paper's core: trace
 * persistence, the power-spreading option, the on-line characterizer,
 * and the phase-adaptive control scheme.
 */

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "core/cosim.hh"
#include "core/emergency_estimator.hh"
#include "core/experiment.hh"
#include "core/online_characterizer.hh"
#include "power/stimulus.hh"
#include "power/trace_io.hh"
#include "sim/processor.hh"
#include "stats/running_stats.hh"
#include "util/rng.hh"
#include "workload/generator.hh"

namespace didt
{
namespace
{

std::string
tempPath(const char *name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

// ---------------------------------------------------------------------------
// Trace I/O
// ---------------------------------------------------------------------------

TEST(TraceIo, TextRoundTripThroughStream)
{
    Rng rng(1);
    const CurrentTrace trace = gaussianCurrent(40.0, 10.0, 500, rng);
    std::stringstream buffer;
    writeTraceText(buffer, trace, "test trace\nsecond comment line");
    const CurrentTrace back = readTraceText(buffer);
    ASSERT_EQ(back.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i)
        EXPECT_NEAR(back[i], trace[i], 1e-7);
}

TEST(TraceIo, TextSkipsCommentsAndBlanks)
{
    std::stringstream buffer("# header\n\n1.5\n  # indented comment\n2.5\n");
    const CurrentTrace trace = readTraceText(buffer);
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_DOUBLE_EQ(trace[0], 1.5);
    EXPECT_DOUBLE_EQ(trace[1], 2.5);
}

TEST(TraceIo, TextFileRoundTrip)
{
    const std::string path = tempPath("didt_trace_test.txt");
    const CurrentTrace trace{1.0, 2.0, 3.5};
    writeTraceText(path, trace, "file test");
    EXPECT_EQ(readTraceText(path), trace);
    std::filesystem::remove(path);
}

TEST(TraceIo, BinaryRoundTripIsExact)
{
    Rng rng(2);
    const CurrentTrace trace = gaussianCurrent(40.0, 10.0, 4096, rng);
    const std::string path = tempPath("didt_trace_test.bin");
    writeTraceBinary(path, trace);
    EXPECT_EQ(readTraceBinary(path), trace); // bit-exact
    std::filesystem::remove(path);
}

TEST(TraceIo, TraceSetRoundTripIsExact)
{
    Rng rng(3);
    TraceSet set;
    set.perCore.push_back(gaussianCurrent(40.0, 10.0, 1024, rng));
    set.perCore.push_back(gaussianCurrent(35.0, 8.0, 1024, rng));
    set.aggregate.resize(1024);
    for (std::size_t i = 0; i < 1024; ++i)
        set.aggregate[i] = 0.5 * (set.perCore[0][i] + set.perCore[1][i]);

    const std::string path = tempPath("didt_trace_set.bin");
    writeTraceSetBinary(path, set);
    const TraceSet back = readTraceSetBinary(path);
    ASSERT_EQ(back.perCore.size(), 2u);
    EXPECT_EQ(back.aggregate, set.aggregate); // bit-exact
    EXPECT_EQ(back.perCore[0], set.perCore[0]);
    EXPECT_EQ(back.perCore[1], set.perCore[1]);
    std::filesystem::remove(path);
}

TEST(TraceIo, TraceSetRejectsSingleTraceFile)
{
    // The two binary formats are distinct: a single-trace file is not
    // a valid trace set, and the tolerant reader says so (nullopt)
    // instead of dying.
    Rng rng(4);
    const std::string path = tempPath("didt_trace_not_set.bin");
    writeTraceBinary(path, gaussianCurrent(40.0, 10.0, 64, rng));
    EXPECT_FALSE(tryReadTraceSetBinary(path).has_value());
    std::filesystem::remove(path);
}

TEST(TraceIo, BinaryEmptyTrace)
{
    const std::string path = tempPath("didt_trace_empty.bin");
    writeTraceBinary(path, {});
    EXPECT_TRUE(readTraceBinary(path).empty());
    std::filesystem::remove(path);
}

TEST(TraceIoDeath, MissingFileIsFatal)
{
    EXPECT_EXIT((void)readTraceText("/nonexistent/didt.txt"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(TraceIoDeath, BadMagicIsFatal)
{
    const std::string path = tempPath("didt_trace_bad.bin");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    std::fputs("not a trace at all........", f);
    std::fclose(f);
    EXPECT_EXIT((void)readTraceBinary(path), ::testing::ExitedWithCode(1),
                "not a didt binary trace");
    std::filesystem::remove(path);
}

TEST(TraceIoDeath, MalformedSampleIsFatal)
{
    const std::string path = tempPath("didt_trace_mal.txt");
    std::FILE *f = std::fopen(path.c_str(), "w");
    std::fputs("1.0\nbogus\n", f);
    std::fclose(f);
    EXPECT_EXIT((void)readTraceText(path), ::testing::ExitedWithCode(1),
                "malformed");
    std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Power spreading
// ---------------------------------------------------------------------------

/** Burst-then-idle source to expose power spreading. */
class BurstSource : public InstructionSource
{
  public:
    bool
    next(Instruction &out) override
    {
        if (produced_ >= 64)
            return false;
        out = Instruction{};
        out.op = OpClass::IntAlu;
        out.pc = 0x400000 + 4 * produced_;
        ++produced_;
        return true;
    }

  private:
    std::uint64_t produced_ = 0;
};

TEST(PowerSpreading, ConservesTotalEnergy)
{
    auto run_energy = [](std::size_t spread) {
        BurstSource src;
        PowerModelConfig power;
        power.currentNoiseSigma = 0.0;
        power.spreadStages = spread;
        Processor proc({}, power, src);
        while (proc.step()) {
        }
        // A few extra idle cycles to flush the spread ring.
        return proc.stats().totalEnergyJ / proc.stats().cycles;
    };
    // Mean power per cycle should be nearly unchanged by spreading.
    EXPECT_NEAR(run_energy(1), run_energy(3), 0.05 * run_energy(1));
}

TEST(PowerSpreading, SmoothsCycleToCycleSwings)
{
    auto max_delta = [](std::size_t spread) {
        BurstSource src;
        PowerModelConfig power;
        power.currentNoiseSigma = 0.0;
        power.spreadStages = spread;
        Processor proc({}, power, src);
        CurrentTrace trace;
        proc.collectTrace(trace, 100000);
        double worst = 0.0;
        for (std::size_t n = 1; n < trace.size(); ++n)
            worst = std::max(worst, std::abs(trace[n] - trace[n - 1]));
        return worst;
    };
    EXPECT_LT(max_delta(3), max_delta(1));
}

// ---------------------------------------------------------------------------
// Online characterizer
// ---------------------------------------------------------------------------

class OnlineCharacterizerTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        SupplyNetworkConfig cfg;
        cfg.resonantHz = 125.0e6;
        cfg.qualityFactor = 5.0;
        cfg.dcResistance = 3.0e-4;
        cfg.impedanceScale = 1.5;
        network_ = new SupplyNetwork(cfg);
        model_ = new VoltageVarianceModel(*network_);
        Rng rng(5);
        model_->calibrate(rng, 6);
    }

    static void
    TearDownTestSuite()
    {
        delete model_;
        delete network_;
        model_ = nullptr;
        network_ = nullptr;
    }

    static SupplyNetwork *network_;
    static VoltageVarianceModel *model_;
};

SupplyNetwork *OnlineCharacterizerTest::network_ = nullptr;
VoltageVarianceModel *OnlineCharacterizerTest::model_ = nullptr;

TEST_F(OnlineCharacterizerTest, WindowBoundaryReporting)
{
    OnlineCharacterizer online(*model_, 0.97, 1.03);
    for (std::size_t n = 0; n < 255; ++n)
        EXPECT_FALSE(online.push(40.0));
    EXPECT_TRUE(online.push(40.0));
    EXPECT_EQ(online.windows(), 1u);
    EXPECT_EQ(online.cycles(), 256u);
}

TEST_F(OnlineCharacterizerTest, MatchesOfflineEstimates)
{
    Rng rng(6);
    const CurrentTrace trace = gaussianCurrent(45.0, 8.0, 256 * 40, rng);
    OnlineCharacterizer online(*model_, 0.97, 1.03);
    for (Amp amp : trace)
        online.push(amp);

    const EmergencyProfile offline =
        profileTrace(trace, *network_, *model_, 0.97, 1.03);
    EXPECT_EQ(online.windows(), offline.windows);
    EXPECT_NEAR(online.exposureBelow(), offline.estimatedBelow, 1e-9);
    EXPECT_NEAR(online.exposureAbove(), offline.estimatedAbove, 1e-9);
}

TEST_F(OnlineCharacterizerTest, HazardSignalFollowsPhase)
{
    OnlineCharacterizer online(*model_, 0.97, 1.03);
    // Benign phase: quiet constant current.
    for (std::size_t n = 0; n < 256 * 4; ++n)
        online.push(40.0);
    EXPECT_LT(online.currentHazard(), 1e-4);
    // Hazardous phase: sustained resonant square wave.
    const CurrentTrace wave =
        resonantSquareWave(3.0e9, 125.0e6, 25.0, 75.0, 200);
    for (std::size_t n = 0; n < 256 * 4 && n < wave.size(); ++n)
        online.push(wave[n]);
    EXPECT_GT(online.currentHazard(), 0.01);
}

TEST_F(OnlineCharacterizerTest, ResetClearsState)
{
    OnlineCharacterizer online(*model_, 0.97, 1.03);
    for (std::size_t n = 0; n < 300; ++n)
        online.push(40.0);
    online.reset();
    EXPECT_EQ(online.cycles(), 0u);
    EXPECT_EQ(online.windows(), 0u);
    EXPECT_DOUBLE_EQ(online.exposureBelow(), 0.0);
}

TEST_F(OnlineCharacterizerTest, RequiresCalibratedModel)
{
    VoltageVarianceModel raw(*network_);
    EXPECT_EXIT(OnlineCharacterizer online(raw, 0.97, 1.03),
                ::testing::ExitedWithCode(1), "calibrated");
}

// ---------------------------------------------------------------------------
// Adaptive control
// ---------------------------------------------------------------------------

TEST(AdaptiveControl, SchemeNameAndModelRequirement)
{
    EXPECT_STREQ(controlSchemeName(ControlScheme::AdaptiveWavelet),
                 "adaptive-wavelet");
    const ExperimentSetup setup = makeStandardSetup();
    const SupplyNetwork net = setup.makeNetwork(1.5);
    CosimConfig cfg;
    cfg.instructions = 500;
    cfg.scheme = ControlScheme::AdaptiveWavelet;
    cfg.hazardModel = nullptr;
    EXPECT_THROW((void)runClosedLoop(profileByName("gzip"), setup.proc,
                                     setup.power, net, cfg),
                 std::invalid_argument);
}

TEST(AdaptiveControl, ReducesFaultsVsOptimisticFixed)
{
    const ExperimentSetup setup = makeStandardSetup();
    const SupplyNetwork net = setup.makeNetwork(1.5);
    const VoltageVarianceModel model = makeCalibratedModel(setup, net);
    const BenchmarkProfile &prof = profileByName("galgel");

    CosimConfig cfg;
    cfg.instructions = 40000;
    cfg.control.tolerance = 0.010;
    cfg.scheme = ControlScheme::Wavelet;
    const CosimResult fixed =
        runClosedLoop(prof, setup.proc, setup.power, net, cfg);

    cfg.scheme = ControlScheme::AdaptiveWavelet;
    cfg.hazardModel = &model;
    const CosimResult adaptive =
        runClosedLoop(prof, setup.proc, setup.power, net, cfg);

    EXPECT_LT(adaptive.lowFaults, fixed.lowFaults);
}

} // namespace
} // namespace didt
