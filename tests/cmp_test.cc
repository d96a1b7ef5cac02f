/**
 * @file
 * Chip-multiprocessor (CMP) generalization tests.
 *
 * The chip path carries a hard compatibility invariant: a 1-core Chip
 * must be byte-identical to the uniprocessor Processor path — same
 * per-cycle currents, same cosim statistics, same campaign JSON — so
 * every pre-chip result stays reproducible. These tests pin that
 * invariant bit-for-bit, then check the genuinely multi-core
 * properties: determinism across job counts, per-core stream
 * independence, and the resonance physics (in-phase clones excite the
 * resonant octave; staggered seeds and staggered actuation damp it).
 */

#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/cosim.hh"
#include "core/experiment.hh"
#include "obs/metrics.hh"
#include "runner/campaign.hh"
#include "runner/result_json.hh"
#include "runner/trace_repository.hh"
#include "sim/cache.hh"
#include "sim/chip.hh"
#include "sim/processor.hh"
#include "wavelet/basis.hh"
#include "wavelet/modwt.hh"
#include "workload/generator.hh"
#include "workload/mix.hh"
#include "workload/profile.hh"

namespace didt
{
namespace
{

const ExperimentSetup &
sharedSetup()
{
    static const ExperimentSetup setup = makeStandardSetup();
    return setup;
}

/** Campaign JSON bytes for @p spec on a fresh repository. */
std::string
campaignJson(const CampaignSpec &spec, std::size_t jobs)
{
    const ExperimentSetup &setup = sharedSetup();
    TraceRepository repo(setup);
    const CampaignResult result =
        runCharacterizationCampaign(setup, spec, repo, jobs);
    std::ostringstream out;
    campaignToJson(result, false).write(out);
    return out.str();
}

/** A small fast spec shared by the campaign-identity tests. */
CampaignSpec
smallSpec()
{
    CampaignSpec spec;
    spec.impedanceScales = {1.0};
    spec.windowLength = 128;
    spec.levels = 6;
    spec.instructions = 15000;
    return spec;
}

// ---------------------------------------------------------------------------
// 1-core Chip == Processor, bit for bit
// ---------------------------------------------------------------------------

TEST(ChipIdentity, OneCoreCurrentsMatchProcessorBitwise)
{
    const ExperimentSetup &setup = sharedSetup();
    const BenchmarkProfile &profile = profileByName("gzip");

    SyntheticWorkload uni_src(profile, 20000, 7);
    Processor proc(setup.proc, setup.power, uni_src);

    SyntheticWorkload chip_src(profile, 20000, 7);
    ChipConfig config;
    config.core = setup.proc;
    InstructionSource *sources[] = {&chip_src};
    Chip chip(config, setup.power, sources);

    ASSERT_EQ(chip.coreCount(), 1u);
    EXPECT_DOUBLE_EQ(chip.coreScale(0), 1.0);

    bool more_proc = true;
    bool more_chip = true;
    for (std::size_t cycle = 0; cycle < 30000; ++cycle) {
        more_proc = proc.step();
        more_chip = chip.step();
        ASSERT_EQ(more_proc, more_chip) << "cycle " << cycle;
        // Bitwise, not approximate: the 1-core aggregate is scaled by
        // exactly 1.0, so any divergence is a real model change.
        const double uni = proc.lastCurrent();
        const double agg = chip.lastAggregateCurrent();
        std::uint64_t uni_bits, agg_bits;
        std::memcpy(&uni_bits, &uni, sizeof(uni_bits));
        std::memcpy(&agg_bits, &agg, sizeof(agg_bits));
        ASSERT_EQ(uni_bits, agg_bits) << "cycle " << cycle;
        if (!more_proc)
            break;
    }
    EXPECT_EQ(proc.stats().committed, chip.core(0).stats().committed);
    EXPECT_EQ(proc.stats().cycles, chip.core(0).stats().cycles);
}

TEST(ChipIdentity, OneCoreTraceMatchesBenchmarkTraceBitwise)
{
    const ExperimentSetup &setup = sharedSetup();
    const BenchmarkProfile &profile = profileByName("mcf");

    const CurrentTrace uni =
        benchmarkCurrentTrace(setup, profile, 20000, 3);
    const TraceSet chip =
        chipCurrentTrace(setup, {{&profile, 3}}, 20000);

    ASSERT_EQ(chip.perCore.size(), 1u);
    ASSERT_EQ(uni.size(), chip.aggregate.size());
    ASSERT_EQ(uni.size(), chip.perCore[0].size());
    for (std::size_t i = 0; i < uni.size(); ++i) {
        std::uint64_t a, b, c;
        std::memcpy(&a, &uni[i], sizeof(a));
        std::memcpy(&b, &chip.aggregate[i], sizeof(b));
        std::memcpy(&c, &chip.perCore[0][i], sizeof(c));
        ASSERT_EQ(a, b) << "cycle " << i;
        ASSERT_EQ(a, c) << "cycle " << i;
    }
}

TEST(ChipIdentity, OneCoreClosedLoopMatchesUniprocessorWavelet)
{
    const ExperimentSetup &setup = sharedSetup();
    const BenchmarkProfile &profile = profileByName("gzip");
    // At 2x the target impedance the wavelet controller actuates, and
    // faults and false positives occur, so every counter is exercised.
    const SupplyNetwork network = setup.makeNetwork(2.0);

    CosimConfig cfg;
    cfg.instructions = 20000;
    cfg.scheme = ControlScheme::Wavelet;
    const CosimResult uni =
        runClosedLoop(profile, setup.proc, setup.power, network, cfg);

    // Golden values of the uniprocessor closed loop on a Processor,
    // which the 1-core Chip must reproduce bit for bit: the Figure 15
    // and Table 2 numbers rest on them.
    const auto bits = [](double value) {
        std::uint64_t out;
        std::memcpy(&out, &value, sizeof(out));
        return out;
    };
    EXPECT_EQ(uni.cycles, 14239u);
    EXPECT_EQ(uni.committed, 20000u);
    EXPECT_EQ(uni.lowFaults, 52u);
    EXPECT_EQ(uni.highFaults, 0u);
    EXPECT_EQ(uni.controlCycles, 369u);
    EXPECT_EQ(uni.stallCycles, 369u);
    EXPECT_EQ(uni.noopCycles, 0u);
    EXPECT_EQ(uni.falsePositives, 97u);
    EXPECT_EQ(bits(uni.minVoltage), 0x3fee0ed24ef331aeull);
    EXPECT_EQ(bits(uni.maxVoltage), 0x3ff07a6f2d074a74ull);
    EXPECT_EQ(bits(uni.meanCurrent), 0x404713e3f0f0b7f7ull);
    EXPECT_EQ(bits(uni.energyJ), 0x3f2cb6bb61cded3bull);

    // Staggered actuation degenerates to lockstep on one core: core 0
    // is never delayed.
    const std::vector<ChipWorkload> one{{&profile, 0}};
    cfg.staggered = true;
    const CosimResult staggered =
        runClosedLoop(one, setup.proc, setup.power, network, cfg);
    EXPECT_EQ(uni.cycles, staggered.cycles);
    EXPECT_EQ(uni.controlCycles, staggered.controlCycles);
    EXPECT_EQ(uni.falsePositives, staggered.falsePositives);
    EXPECT_EQ(bits(uni.minVoltage), bits(staggered.minVoltage));
}

TEST(ChipIdentity, ExplicitSingleCoreCampaignJsonMatchesLegacy)
{
    CampaignSpec legacy = smallSpec();
    legacy.profiles = {profileByName("gzip")};

    CampaignSpec explicit_one = legacy;
    explicit_one.coreCounts = {1};

    EXPECT_EQ(campaignJson(legacy, 2), campaignJson(explicit_one, 2));
}

TEST(ChipIdentity, SingleCoreTraceRequestKeepsLegacyFingerprint)
{
    TraceRequest legacy;
    legacy.profile = profileByName("swim");
    legacy.instructions = 20000;
    legacy.seed = 5;

    // An explicit 1-core chip request that collapsed to the legacy
    // form must share its fingerprint (and its disk cache file) ...
    TraceRequest one_core = legacy;
    one_core.cores = 1;
    EXPECT_EQ(fingerprintTraceRequest(legacy),
              fingerprintTraceRequest(one_core));

    // ... while a real chip request must not.
    TraceRequest two_core = legacy;
    two_core.cores = 2;
    two_core.coreProfiles = {legacy.profile, legacy.profile};
    two_core.coreSeeds = {deriveCoreSeed(5, 0), deriveCoreSeed(5, 1)};
    EXPECT_NE(fingerprintTraceRequest(legacy),
              fingerprintTraceRequest(two_core));
}

// ---------------------------------------------------------------------------
// Multi-core determinism and physics
// ---------------------------------------------------------------------------

TEST(ChipCampaign, TwoCoreMixJsonIdenticalAcrossJobCounts)
{
    CampaignSpec spec = smallSpec();
    spec.mixes = {"inphase-gzip", "staggered-gzip"};
    spec.coreCounts = {2};

    const std::string serial = campaignJson(spec, 1);
    const std::string parallel = campaignJson(spec, 4);
    EXPECT_EQ(serial, parallel);
    // The chip dimensions must be visible in the result document.
    EXPECT_NE(serial.find("\"cores\""), std::string::npos);
    EXPECT_NE(serial.find("staggered-gzip"), std::string::npos);
}

TEST(ChipCampaign, MixedWorkloadCellRunsDistinctProfilesPerCore)
{
    const WorkloadMix mix = mixByName("mixed4");
    ASSERT_EQ(mix.benchmarks.size(), 4u);
    // Cores cycle the benchmark list; with 4 cores each runs its own.
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(mixProfileForCore(mix, i).name, mix.benchmarks[i]);
    // Beyond the list length the assignment wraps.
    EXPECT_EQ(mixProfileForCore(mix, 4).name, mix.benchmarks[0]);
    // Staggered mixes give every core its own seed; core 0 keeps the
    // campaign seed so a 1-core mix cell is a legacy cell.
    EXPECT_EQ(mixCoreSeed(mix, 9, 0), 9u);
    EXPECT_NE(mixCoreSeed(mix, 9, 1), mixCoreSeed(mix, 9, 2));

    const WorkloadMix inphase = mixByName("inphase-gzip");
    EXPECT_EQ(mixCoreSeed(inphase, 9, 0), mixCoreSeed(inphase, 9, 3));
}

TEST(ChipPhysics, InPhaseMixExcitesResonantOctave)
{
    const ExperimentSetup &setup = sharedSetup();

    const auto aggregate_for = [&](const std::string &mix_name) {
        const WorkloadMix mix = mixByName(mix_name);
        std::vector<ChipWorkload> workloads;
        for (std::size_t i = 0; i < 4; ++i)
            workloads.push_back(
                {&mixProfileForCore(mix, i), mixCoreSeed(mix, 0, i)});
        return chipCurrentTrace(setup, workloads, 15000).aggregate;
    };

    const CurrentTrace inphase = aggregate_for("inphase-gzip");
    const CurrentTrace staggered = aggregate_for("staggered-gzip");
    ASSERT_GE(inphase.size(), 4096u);
    ASSERT_GE(staggered.size(), 4096u);

    const Modwt modwt(WaveletBasis::haar());
    const std::vector<double> v_in = modwt.waveletVariance(inphase, 8);
    const std::vector<double> v_st =
        modwt.waveletVariance(staggered, 8);

    // Level whose octave contains the package resonance (3 GHz clock,
    // 125 MHz resonance -> level 4, index 3).
    const double ratio = setup.supplyBase.clockHz /
                         setup.supplyBase.resonantHz;
    const std::size_t lvl = static_cast<std::size_t>(
                                std::floor(std::log2(ratio))) -
                            1;
    ASSERT_LT(lvl, v_in.size());

    // Four clones stepping in lockstep add coherently (~N^2 variance);
    // independently seeded streams add incoherently (~N). The in-phase
    // mix must therefore carry strictly more resonance-band variance.
    EXPECT_GT(v_in[lvl], v_st[lvl]);
}

TEST(ChipPhysics, StaggeredActuationReducesResonanceBandVariance)
{
    const ExperimentSetup &setup = sharedSetup();
    const SupplyNetwork network = setup.makeNetwork(1.5);

    // mgrid is one of the paper's dI/dt stressors: its L2-bound
    // oscillation phases keep the wavelet controller engaged, so the
    // actuation phasing actually matters.
    const WorkloadMix mix = mixByName("inphase-mgrid");
    std::vector<ChipWorkload> workloads;
    for (std::size_t i = 0; i < 4; ++i)
        workloads.push_back(
            {&mixProfileForCore(mix, i), mixCoreSeed(mix, 0, i)});

    // The contrast needs the episodic-actuation regime: throttle
    // bursts recur at the resonant frequency, so their phasing across
    // cores decides whether they excite the supply coherently. Long
    // enough a trace for the wavelet variance to stabilise; a wider
    // tolerance would push the controller into near-continuous
    // throttling where phasing no longer matters.
    CosimConfig cfg;
    cfg.instructions = 30000;
    cfg.control.tolerance = 0.030;
    cfg.scheme = ControlScheme::Wavelet;
    cfg.varianceLevels = 8;

    const CosimResult independent =
        runClosedLoop(workloads, setup.proc, setup.power, network, cfg);
    cfg.staggered = true;
    const CosimResult staggered =
        runClosedLoop(workloads, setup.proc, setup.power, network, cfg);

    // The contrast is only meaningful when the controller actually
    // actuated: an idle controller makes the two schemes identical.
    ASSERT_GT(independent.controlCycles, 0u);
    ASSERT_GT(staggered.controlCycles, 0u);
    ASSERT_GT(independent.resonanceBandVariance(), 0.0);
    ASSERT_GT(staggered.resonanceBandVariance(), 0.0);
    // Desynchronizing the per-core throttle phases spreads the
    // actuation current steps across the resonant period: the
    // aggregate's resonance-band variance must drop.
    EXPECT_LT(staggered.resonanceBandVariance(),
              independent.resonanceBandVariance());
    // Both controlled runs commit the full streams.
    EXPECT_EQ(independent.committed, staggered.committed);
}

TEST(ChipClosedLoop, BadWorkloadListsThrowTypedErrors)
{
    const ExperimentSetup &setup = sharedSetup();
    const SupplyNetwork network = setup.makeNetwork(1.2);
    CosimConfig cfg;
    cfg.instructions = 500;
    const std::vector<ChipWorkload> none;
    EXPECT_THROW((void)runClosedLoop(none, setup.proc, setup.power,
                                     network, cfg),
                 std::invalid_argument);
    const std::vector<ChipWorkload> null_profile{{nullptr, 0}};
    EXPECT_THROW((void)runClosedLoop(null_profile, setup.proc,
                                     setup.power, network, cfg),
                 std::invalid_argument);
    // cfg.seed belongs to the single-profile form only.
    const BenchmarkProfile &profile = profileByName("gzip");
    const std::vector<ChipWorkload> one{{&profile, 0}};
    cfg.seed = 3;
    EXPECT_THROW((void)runClosedLoop(one, setup.proc, setup.power,
                                     network, cfg),
                 std::invalid_argument);
}

double
counterValue(const char *name)
{
    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::global().snapshot();
    const obs::MetricSnapshot *metric = snap.find(name);
    return metric ? metric->value : 0.0;
}

TEST(ChipClosedLoop, MultiCoreRunFlushesControllerCounters)
{
    const ExperimentSetup &setup = sharedSetup();
    const SupplyNetwork network = setup.makeNetwork(1.5);
    const WorkloadMix mix = mixByName("inphase-mgrid");
    std::vector<ChipWorkload> workloads;
    for (std::size_t i = 0; i < 2; ++i)
        workloads.push_back(
            {&mixProfileForCore(mix, i), mixCoreSeed(mix, 0, i)});
    CosimConfig cfg;
    cfg.instructions = 20000;

    const double before = counterValue("controller.low_faults");
    const CosimResult r =
        runClosedLoop(workloads, setup.proc, setup.power, network, cfg);
    ASSERT_GT(r.lowFaults, 0u);
    EXPECT_EQ(counterValue("controller.low_faults") - before,
              static_cast<double>(r.lowFaults));
}

TEST(ChipDeterminism, NCoreStepSequenceReproducible)
{
    const ExperimentSetup &setup = sharedSetup();
    const BenchmarkProfile &profile = profileByName("gcc");

    const auto run = [&] {
        std::vector<SyntheticWorkload> streams;
        streams.reserve(3);
        for (std::size_t i = 0; i < 3; ++i)
            streams.emplace_back(profile, 5000, deriveCoreSeed(1, i));
        InstructionSource *sources[] = {&streams[0], &streams[1],
                                        &streams[2]};
        ChipConfig config;
        config.cores = 3;
        config.core = setup.proc;
        Chip chip(config, setup.power, sources);
        std::vector<double> currents;
        while (chip.step())
            currents.push_back(chip.lastAggregateCurrent());
        return currents;
    };

    const std::vector<double> first = run();
    const std::vector<double> second = run();
    ASSERT_EQ(first.size(), second.size());
    ASSERT_FALSE(first.empty());
    for (std::size_t i = 0; i < first.size(); ++i)
        ASSERT_EQ(first[i], second[i]) << "cycle " << i;
}

TEST(ChipL2, BankConflictsStallOnlyCrossCoreTraffic)
{
    // Structurally zero for one core: a core's own same-cycle claims
    // are not conflicts, so the arbiter cannot perturb the 1-core
    // byte-identity invariant.
    L2BankArbiter arbiter(8, 4, 64, 4);
    arbiter.beginCycle();
    EXPECT_EQ(arbiter.claim(0x1000, 0), 0u);
    EXPECT_EQ(arbiter.claim(0x1000, 0), 0u);
    EXPECT_EQ(arbiter.conflicts(), 0u);

    // A second core hitting the same bank in the same cycle pays one
    // penalty per foreign claim.
    EXPECT_EQ(arbiter.claim(0x1000, 1), 2u * 4u);
    // A different bank is free.
    EXPECT_EQ(arbiter.claim(0x1040, 1), 0u);

    // The next cycle starts clean.
    arbiter.beginCycle();
    EXPECT_EQ(arbiter.claim(0x1000, 1), 0u);
}

} // namespace
} // namespace didt
