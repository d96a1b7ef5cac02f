/**
 * @file
 * The SIMD determinism contract: every dispatched kernel level
 * produces bit-for-bit the same results as the scalar reference, for
 * every basis, at lengths that are not multiples of the vector width;
 * the devirtualized block/chunked paths (monitor updateBlock, cosim
 * monomorphization, StreamingConvolver's two-segment ring walk) match
 * their per-cycle references exactly; and campaign JSON is
 * byte-identical whichever kernel level runs it.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/cosim.hh"
#include "core/experiment.hh"
#include "core/monitor.hh"
#include "power/convolution.hh"
#include "runner/campaign.hh"
#include "runner/result_json.hh"
#include "runner/trace_repository.hh"
#include "stats/histogram.hh"
#include "util/rng.hh"
#include "util/simd.hh"
#include "wavelet/basis.hh"
#include "wavelet/dwt.hh"
#include "wavelet/modwt.hh"
#include "wavelet/subband.hh"

namespace didt
{
namespace
{

/** Restore CPU-probed dispatch when a test scope ends. */
struct LevelGuard
{
    ~LevelGuard() { simd::clearForcedLevel(); }
};

std::vector<simd::Level>
vectorLevels()
{
    std::vector<simd::Level> out;
    for (simd::Level level :
         {simd::Level::Sse2, simd::Level::Avx2, simd::Level::Neon})
        if (simd::levelAvailable(level))
            out.push_back(level);
    return out;
}

/** Bit-for-bit comparison: distinguishes -0.0 from 0.0 and treats
 *  identical NaNs as equal, which EXPECT_DOUBLE_EQ does not. */
void
expectBitEqual(std::span<const double> a, std::span<const double> b,
               const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
                  std::bit_cast<std::uint64_t>(b[i]))
            << what << " diverges at index " << i << ": " << a[i]
            << " vs " << b[i];
}

/** Every subband projection of @p dec: details finest first, then
 *  the approximation. */
std::vector<std::vector<double>>
allSubbands(const Dwt &dwt, const FlatDecomposition &dec)
{
    std::vector<std::vector<double>> bands(
        dec.levels() + 1, std::vector<double>(dec.signalLength()));
    DwtWorkspace ws;
    for (std::size_t j = 0; j < dec.levels(); ++j)
        detailSubband(dwt, dec, j, bands[j], ws);
    approximationSubband(dwt, dec, bands.back(), ws);
    return bands;
}

std::vector<double>
noisySignal(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> x(n);
    for (std::size_t i = 0; i < n; ++i)
        x[i] = rng.normal(0.0, 1.0) + 0.3 * std::sin(0.05 * double(i));
    return x;
}

const std::vector<const char *> kBases{"haar", "db4", "db6"};

TEST(SimdDispatch, ScalarAlwaysAvailableAndForcible)
{
    LevelGuard guard;
    EXPECT_TRUE(simd::levelAvailable(simd::Level::Scalar));
    simd::forceLevel(simd::Level::Scalar);
    EXPECT_EQ(simd::activeLevel(), simd::Level::Scalar);
    simd::clearForcedLevel();
    EXPECT_EQ(simd::activeLevel(), simd::bestLevel());
}

TEST(SimdDispatch, LevelNamesAreStable)
{
    EXPECT_STREQ(simd::levelName(simd::Level::Scalar), "scalar");
    EXPECT_STREQ(simd::levelName(simd::Level::Sse2), "sse2");
    EXPECT_STREQ(simd::levelName(simd::Level::Avx2), "avx2");
    EXPECT_STREQ(simd::levelName(simd::Level::Neon), "neon");
}

// Lengths chosen to never be multiples of any vector width times the
// subsampling, so every kernel exercises its scalar remainder epilogue
// as well as the vector body.
TEST(SimdEquivalence, DwtForwardBitIdentical)
{
    LevelGuard guard;
    for (const char *name : kBases) {
        const Dwt dwt(WaveletBasis::byName(name));
        for (std::size_t n : {32u, 96u, 160u, 416u}) {
            const std::vector<double> x = noisySignal(n, 7 + n);
            const std::size_t levels = std::min<std::size_t>(
                3, dwt.maxLevels(n));
            ASSERT_GE(levels, 1u);

            simd::forceLevel(simd::Level::Scalar);
            const FlatDecomposition ref = dwt.forward(x, levels);
            for (simd::Level level : vectorLevels()) {
                simd::forceLevel(level);
                const FlatDecomposition got = dwt.forward(x, levels);
                ASSERT_EQ(got.levels(), ref.levels());
                const std::string what = std::string(name) + "/n=" +
                                         std::to_string(n) + "/" +
                                         simd::levelName(level);
                for (std::size_t j = 0; j < ref.levels(); ++j)
                    expectBitEqual(got.detail(j), ref.detail(j),
                                   what + "/detail" + std::to_string(j));
                expectBitEqual(got.approximation(), ref.approximation(),
                               what + "/approx");
            }
        }
    }
}

TEST(SimdEquivalence, DwtInverseAndSubbandsBitIdentical)
{
    LevelGuard guard;
    for (const char *name : kBases) {
        const Dwt dwt(WaveletBasis::byName(name));
        for (std::size_t n : {96u, 416u}) {
            const std::vector<double> x = noisySignal(n, 11 + n);
            const std::size_t levels = std::min<std::size_t>(
                3, dwt.maxLevels(n));
            ASSERT_GE(levels, 1u);

            simd::forceLevel(simd::Level::Scalar);
            const FlatDecomposition dec = dwt.forward(x, levels);
            const std::vector<double> ref_inv = dwt.inverse(dec);
            const auto ref_sub = allSubbands(dwt, dec);
            for (simd::Level level : vectorLevels()) {
                simd::forceLevel(level);
                const std::string what = std::string(name) + "/n=" +
                                         std::to_string(n) + "/" +
                                         simd::levelName(level);
                expectBitEqual(dwt.inverse(dec), ref_inv,
                               what + "/inverse");
                const auto got_sub = allSubbands(dwt, dec);
                ASSERT_EQ(got_sub.size(), ref_sub.size());
                for (std::size_t s = 0; s < ref_sub.size(); ++s)
                    expectBitEqual(got_sub[s], ref_sub[s],
                                   what + "/subband" + std::to_string(s));
            }
        }
    }
}

TEST(SimdEquivalence, AnalyzeSynthesizeStepsBitIdentical)
{
    LevelGuard guard;
    for (const char *name : kBases) {
        const Dwt dwt(WaveletBasis::byName(name));
        for (std::size_t n : {6u, 10u, 98u, 250u}) {
            const std::vector<double> x = noisySignal(n, 13 + n);
            std::vector<double> approx(n / 2);
            std::vector<double> detail(n / 2);
            std::vector<double> merged(n);

            simd::forceLevel(simd::Level::Scalar);
            std::vector<double> ref_a(n / 2);
            std::vector<double> ref_d(n / 2);
            std::vector<double> ref_m(n);
            dwt.analyzeStep(x, std::span<double>(ref_a),
                            std::span<double>(ref_d));
            dwt.synthesizeStep(ref_a, ref_d, std::span<double>(ref_m));

            for (simd::Level level : vectorLevels()) {
                simd::forceLevel(level);
                const std::string what = std::string(name) + "/n=" +
                                         std::to_string(n) + "/" +
                                         simd::levelName(level);
                dwt.analyzeStep(x, std::span<double>(approx),
                                std::span<double>(detail));
                expectBitEqual(approx, ref_a, what + "/approx");
                expectBitEqual(detail, ref_d, what + "/detail");
                dwt.synthesizeStep(ref_a, ref_d,
                                   std::span<double>(merged));
                expectBitEqual(merged, ref_m, what + "/merged");
            }
        }
    }
}

TEST(SimdEquivalence, ModwtForwardAndVarianceBitIdentical)
{
    LevelGuard guard;
    for (const char *name : kBases) {
        const Modwt modwt(WaveletBasis::byName(name));
        for (std::size_t n : {97u, 101u, 333u}) {
            const std::vector<double> x = noisySignal(n, 17 + n);
            const std::size_t levels = 3;

            simd::forceLevel(simd::Level::Scalar);
            const FlatDecomposition ref = modwt.forward(x, levels);
            const std::vector<double> ref_var =
                modwt.waveletVariance(x, levels);
            for (simd::Level level : vectorLevels()) {
                simd::forceLevel(level);
                const FlatDecomposition got = modwt.forward(x, levels);
                const std::string what = std::string(name) + "/n=" +
                                         std::to_string(n) + "/" +
                                         simd::levelName(level);
                ASSERT_EQ(got.levels(), ref.levels());
                for (std::size_t j = 0; j < ref.levels(); ++j)
                    expectBitEqual(got.detail(j), ref.detail(j),
                                   what + "/detail" + std::to_string(j));
                expectBitEqual(got.approximation(), ref.approximation(),
                               what + "/smooth");
                expectBitEqual(modwt.waveletVariance(x, levels), ref_var,
                               what + "/variance");
            }
        }
    }
}

TEST(SimdEquivalence, ConvolveIntoBitIdenticalAtEveryLength)
{
    LevelGuard guard;
    for (std::size_t klen : {1u, 3u, 7u, 33u}) {
        const std::vector<double> kernel = noisySignal(klen, 23 + klen);
        for (std::size_t n = 1; n <= 100; ++n) {
            const std::vector<double> x = noisySignal(n, 29 + n);
            simd::forceLevel(simd::Level::Scalar);
            const std::vector<double> ref = convolve(x, kernel);
            for (simd::Level level : vectorLevels()) {
                simd::forceLevel(level);
                expectBitEqual(convolve(x, kernel), ref,
                               "convolve klen=" + std::to_string(klen) +
                                   " n=" + std::to_string(n) + "/" +
                                   simd::levelName(level));
            }
        }
    }
}

TEST(SimdEquivalence, ThresholdCountsMatchScalarLoop)
{
    // measureNetworks' threshold counts are strict comparisons in every
    // lane: a voltage exactly at a threshold counts for neither side,
    // and once a NaN enters a lane's recursion it counts for neither.
    // Pass-through lanes (droop = current, v = nominal - current) make
    // the voltages exact, so the thresholds can be hit on the nose;
    // five lanes leave a remainder at every vector width.
    std::vector<double> x = noisySignal(1003, 31);
    const double lo = -0.5;
    const double hi = 0.5;
    std::vector<simd::BiquadLane> lanes;
    for (std::size_t k = 0; k < 5; ++k) {
        const double nominal = 0.25 * static_cast<double>(k);
        lanes.push_back({1.0, 0.0, 0.0, 0.0, nominal, 1.0});
        x[500 + k] = nominal - lo; // v == lo in lane k
        x[600 + k] = nominal - hi; // v == hi in lane k
    }
    x[900] = std::numeric_limits<double>::quiet_NaN();

    // The NaN reaches the recursion state (0 * NaN is NaN), so every
    // later voltage of the lane is NaN too.
    std::vector<simd::MeasuredLane> ref(lanes.size());
    for (std::size_t k = 0; k < lanes.size(); ++k)
        for (std::size_t i = 0; i < 900; ++i) {
            const double v = lanes[k].nominal - x[i];
            ref[k].below += v < lo;
            ref[k].above += v > hi;
        }
    for (simd::Level level : vectorLevels()) {
        std::vector<simd::MeasuredLane> got(lanes.size());
        simd::kernelsFor(level).measureNetworks(x.data(), x.size(),
                                                lanes.data(), lanes.size(),
                                                lo, hi, got.data());
        for (std::size_t k = 0; k < lanes.size(); ++k) {
            EXPECT_EQ(got[k].below, ref[k].below)
                << simd::levelName(level) << " lane " << k;
            EXPECT_EQ(got[k].above, ref[k].above)
                << simd::levelName(level) << " lane " << k;
        }
    }
}

TEST(SimdEquivalence, HistogramPushBlockMatchesPush)
{
    LevelGuard guard;
    std::vector<double> v = noisySignal(777, 37);
    v[3] = -100.0; // clamps into bin 0
    v[4] = 100.0;  // clamps into the last bin

    Histogram ref(-2.0, 2.0, 13);
    for (double x : v)
        ref.push(x);

    for (simd::Level level : vectorLevels()) {
        simd::forceLevel(level);
        Histogram got(-2.0, 2.0, 13);
        got.pushBlock(v);
        ASSERT_EQ(got.total(), ref.total()) << simd::levelName(level);
        for (std::size_t b = 0; b < ref.bins(); ++b)
            EXPECT_EQ(got.count(b), ref.count(b))
                << simd::levelName(level) << " bin " << b;
    }
}

TEST(SimdEquivalence, StreamingConvolverMatchesModuloReference)
{
    const std::vector<double> kernel = noisySignal(37, 41);
    const std::vector<double> input = noisySignal(400, 43);

    // The original modulo-per-tap ring walk, kept as the reference for
    // the two-segment implementation.
    std::vector<double> history(kernel.size(), input[0]);
    std::size_t head = 0;
    StreamingConvolver conv(kernel);
    for (double x : input) {
        head = (head + history.size() - 1) % history.size();
        history[head] = x;
        double acc = 0.0;
        std::size_t idx = head;
        for (std::size_t m = 0; m < kernel.size(); ++m) {
            acc += kernel[m] * history[idx];
            idx = (idx + 1) % history.size();
        }
        conv.push(x);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(conv.value()),
                  std::bit_cast<std::uint64_t>(acc));
    }
}

TEST(SimdEquivalence, MonitorUpdateBlockMatchesPerCycle)
{
    const ExperimentSetup setup = makeStandardSetup();
    const SupplyNetwork net = setup.makeNetwork(1.5);
    const CurrentTrace trace = benchmarkCurrentTrace(
        setup, profileByName("gzip"), 9000, 3);
    const VoltageTrace truth = net.computeVoltage(trace);

    const auto check = [&](VoltageMonitor &block_monitor,
                           VoltageMonitor &cycle_monitor) {
        VoltageTrace block_out(trace.size());
        block_monitor.updateBlock(trace, truth, block_out);
        VoltageTrace cycle_out(trace.size());
        for (std::size_t n = 0; n < trace.size(); ++n)
            cycle_out[n] = cycle_monitor.update(trace[n], truth[n]);
        expectBitEqual(block_out, cycle_out, block_monitor.name());
    };

    WaveletMonitor wb(net, 13);
    WaveletMonitor wc(net, 13);
    check(wb, wc);
    FullConvolutionMonitor fb(net);
    FullConvolutionMonitor fc(net);
    check(fb, fc);
    AnalogSensorMonitor ab(net, 4);
    AnalogSensorMonitor ac(net, 4);
    check(ab, ac);
}

class CosimDevirtualization
    : public ::testing::TestWithParam<ControlScheme>
{
};

TEST_P(CosimDevirtualization, MatchesPerCycleVirtualLoop)
{
    const ExperimentSetup setup = makeStandardSetup();
    const SupplyNetwork net = setup.makeNetwork(1.5);
    VoltageVarianceModel model = makeCalibratedModel(setup, net);

    CosimConfig cfg;
    cfg.instructions = 12000;
    cfg.scheme = GetParam();
    cfg.control.tolerance = 0.020;
    cfg.hazardModel = &model;

    cfg.devirtualize = true;
    const CosimResult fast = runClosedLoop(profileByName("gzip"),
                                           setup.proc, setup.power, net,
                                           cfg);
    cfg.devirtualize = false;
    const CosimResult ref = runClosedLoop(profileByName("gzip"),
                                          setup.proc, setup.power, net,
                                          cfg);

    EXPECT_EQ(fast.cycles, ref.cycles);
    EXPECT_EQ(fast.committed, ref.committed);
    EXPECT_EQ(fast.lowFaults, ref.lowFaults);
    EXPECT_EQ(fast.highFaults, ref.highFaults);
    EXPECT_EQ(fast.controlCycles, ref.controlCycles);
    EXPECT_EQ(fast.stallCycles, ref.stallCycles);
    EXPECT_EQ(fast.noopCycles, ref.noopCycles);
    EXPECT_EQ(fast.falsePositives, ref.falsePositives);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fast.minVoltage),
              std::bit_cast<std::uint64_t>(ref.minVoltage));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fast.maxVoltage),
              std::bit_cast<std::uint64_t>(ref.maxVoltage));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fast.meanCurrent),
              std::bit_cast<std::uint64_t>(ref.meanCurrent));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fast.energyJ),
              std::bit_cast<std::uint64_t>(ref.energyJ));
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, CosimDevirtualization,
    ::testing::Values(ControlScheme::None, ControlScheme::Wavelet,
                      ControlScheme::FullConvolution,
                      ControlScheme::AnalogSensor,
                      ControlScheme::PipelineDamping,
                      ControlScheme::AdaptiveWavelet),
    [](const auto &info) {
        std::string name = controlSchemeName(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST(SimdEquivalence, CampaignJsonByteIdenticalAcrossLevels)
{
    const std::vector<simd::Level> levels = vectorLevels();
    if (levels.empty())
        GTEST_SKIP() << "no vector backend built; scalar only";
    LevelGuard guard;

    const ExperimentSetup setup = makeStandardSetup();
    CampaignSpec spec;
    BenchmarkProfile prof;
    prof.name = "simd-det";
    prof.seed = 51;
    WorkloadPhase phase;
    phase.lengthInsts = 5000;
    prof.phases = {phase};
    spec.profiles = {prof};
    spec.impedanceScales = {1.0, 1.5};
    spec.windowLength = 64;
    spec.levels = 4;
    spec.instructions = 6000;

    simd::forceLevel(simd::Level::Scalar);
    TraceRepository scalar_repo(setup);
    const CampaignResult scalar_result =
        runCharacterizationCampaign(setup, spec, scalar_repo, 2);
    const std::string scalar_json = campaignToJson(scalar_result).dump();

    for (simd::Level level : levels) {
        simd::forceLevel(level);
        TraceRepository repo(setup);
        const CampaignResult result =
            runCharacterizationCampaign(setup, spec, repo, 2);
        EXPECT_EQ(campaignToJson(result).dump(), scalar_json)
            << "campaign JSON must not depend on the "
            << simd::levelName(level) << " kernels";
    }
}

} // namespace
} // namespace didt
