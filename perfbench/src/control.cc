/**
 * @file
 * The control workload: Section-5 closed-loop co-simulation.
 *
 * runClosedLoop at full detail (no sampling), single-threaded, on a
 * few benchmarks at 150% target impedance: each benchmark once without
 * control (the baseline) and once under the wavelet monitor with the
 * Figure-15 settings for 150% (13 terms, 20 mV tolerance). It is the
 * only workload that reaches core/cosim, core/controller, core/monitor
 * and unsampled simulation; campaign analysis does not run here.
 *
 * A round is the fixed list of runs; its simulated statistics must
 * repeat exactly in every round.
 * Set-up is the environment and the supply network.
 */

#include <memory>
#include <sstream>

#include "core/cosim.hh"
#include "core/experiment.hh"
#include "workload/profile.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace didt;

/** Compute-bound, L2-oscillating and memory-bound behaviour. */
const char *const kBenchmarks[] = {"gcc", "swim", "mcf"};

constexpr double kImpedance = 1.5;
constexpr std::size_t kSetups = 5;
/** Instructions per closed-loop run: short enough that a run holds
 *  nine rounds to take the median over, long enough that the cache
 *  warm-up inside runClosedLoop stays under a tenth of a run. */
constexpr std::uint64_t kInstructions = 50000;

struct ControlSetup
{
    ControlSetup()
        : setup(makeStandardSetup()),
          network(setup.makeNetwork(kImpedance))
    {
    }

    ExperimentSetup setup;
    SupplyNetwork network;
};

struct Run
{
    const BenchmarkProfile *profile;
    CosimConfig config;
    std::string name;
};

std::vector<Run>
runList(const RunOptions &options)
{
    std::vector<Run> runs;
    const std::size_t count = options.tiny ? 1 : std::size(kBenchmarks);
    for (std::size_t i = 0; i < count; ++i) {
        Run base;
        base.profile = &profileByName(kBenchmarks[i]);
        base.config.instructions = options.tiny ? 20000 : kInstructions;
        base.config.seed = mixSeed(options.seed, 1) % 1000000;
        base.config.scheme = ControlScheme::None;
        base.name = std::string(kBenchmarks[i]) + "/none";
        Run wavelet = base;
        wavelet.config.scheme = ControlScheme::Wavelet;
        wavelet.config.waveletTerms = 13;
        wavelet.config.control.tolerance = 0.020;
        wavelet.name = std::string(kBenchmarks[i]) + "/wavelet";
        runs.push_back(base);
        runs.push_back(wavelet);
    }
    return runs;
}

/** The simulated statistics that must repeat exactly. */
std::string
statistics(const CosimResult &r)
{
    std::ostringstream out;
    out << r.cycles << ' ' << r.committed << ' ' << r.lowFaults << ' '
        << r.highFaults << ' ' << r.controlCycles << ' ' << r.stallCycles
        << ' ' << r.noopCycles << ' ' << r.falsePositives;
    return out.str();
}

/** One round; returns per-run statistics and latencies. */
std::vector<CosimResult>
round(const ControlSetup &s, const std::vector<Run> &runs, Tracer &tracer,
      std::vector<double> &latency_ms)
{
    std::vector<CosimResult> results;
    for (const Run &run : runs) {
        const Clock::time_point start = Clock::now();
        Tracer::Span span(tracer, "core.cosim", run.name);
        results.push_back(runClosedLoop(*run.profile, s.setup.proc,
                                        s.setup.power, s.network,
                                        run.config));
        span.end();
        latency_ms.push_back(secondsSince(start) * 1000.0);
    }
    return results;
}

void
check(const std::vector<Run> &runs, const std::vector<CosimResult> &results,
      std::vector<std::string> &expected, Report &report)
{
    for (std::size_t i = 0; i < runs.size(); ++i) {
        report.attempt();
        const std::string stats = statistics(results[i]);
        if (results[i].committed < runs[i].config.instructions)
            report.fail(runs[i].name + ": committed " +
                        std::to_string(results[i].committed) + " of " +
                        std::to_string(runs[i].config.instructions));
        else if (expected.size() <= i)
            expected.push_back(stats);
        else if (expected[i] != stats)
            report.fail(runs[i].name + ": statistics " + stats +
                        " differ from the first round's " + expected[i]);
    }
}

} // namespace

void
runControl(const RunOptions &options, Report &report)
{
    const std::vector<Run> runs = runList(options);
    // The six runs of a round take about 1.6 s on a shared 4-vCPU AVX2
    // host, so a run has many rounds to take the median over.
    const std::size_t rounds =
        options.trace || options.tiny ? 1 : roundsFor(options.seconds, 1.6);
    report.context("jobs", "1");
    report.context("rounds", std::to_string(rounds));

    const CpuRotation rotation(1);
    EndToEnd e2e;
    std::unique_ptr<ControlSetup> setup;
    for (std::size_t i = 0; i < kSetups; ++i) {
        setup.reset();
        const Clock::time_point start = Clock::now();
        setup = std::make_unique<ControlSetup>();
        e2e.setupSeconds.push_back(secondsSince(start));
    }

    std::vector<std::string> expected;
    Tracer untraced(false);
    for (std::size_t r = 0; r < rounds; ++r) {
        std::vector<double> latency;
        const Clock::time_point start = Clock::now();
        const std::vector<CosimResult> results =
            round(*setup, runs, untraced, latency);
        const double seconds = secondsSince(start);
        check(runs, results, expected, report);
        double cycles = 0.0;
        for (const CosimResult &result : results)
            cycles += static_cast<double>(result.cycles);
        e2e.rounds.push_back(
            {seconds, static_cast<double>(results.size()), cycles});
        e2e.requestMs.insert(e2e.requestMs.end(), latency.begin(),
                             latency.end());
    }

    std::string outputs;
    for (const std::string &stats : expected)
        outputs += stats + "\n";
    report.note("digest control seed=" + std::to_string(options.seed) + " " +
                digest(outputs));

    if (!options.trace) {
        e2e.peakRssMb = peakRssMb();
        emitEndToEnd(report, e2e);
        return;
    }

    Tracer tracer(true);
    std::vector<double> latency;
    const Clock::time_point start = Clock::now();
    const std::vector<CosimResult> results =
        round(*setup, runs, tracer, latency);
    const double wall = secondsSince(start);
    check(runs, results, expected, report);

    LayerValues layers;
    double cycles = 0.0;
    double stalls = 0.0;
    for (const CosimResult &result : results) {
        cycles += static_cast<double>(result.cycles);
        stalls += static_cast<double>(result.stallCycles);
    }
    layers["sim.cycles"] = cycles;
    layers["core.cosim_s"] = tracer.total("core.cosim");
    layers["sim.cycles_per_s"] = cycles / layers["core.cosim_s"];
    layers["core.control_stall_cycles"] = stalls;
    const double untracedWall = e2e.rounds.front().seconds;
    layers["obs.trace_overhead_pct"] =
        100.0 * (wall - untracedWall) / untracedWall;
    layers["obs.span_coverage_pct"] = 100.0 * layers["core.cosim_s"] / wall;
    tracer.writeChromeTrace(options.outDir + "/control.trace.json");
    emitLayers(report, layers);
}

} // namespace perfbench
