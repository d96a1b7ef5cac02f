/**
 * @file
 * didt_perfbench: one run of one benchmark workload.
 *
 *   didt_perfbench --workload sweep|montecarlo|serve|control
 *                  --seed N --seconds S --trace 0|1
 *                  [--size full|tiny] [--out-dir DIR] [--serve-bin PATH]
 *
 * Prints context lines, then as its last stdout line one JSON object
 * {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
 * untraced, the per-layer metrics with --trace 1. Exits 2 on a bad
 * command line and 1 when the run cannot complete (no result line).
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "util/json.hh"
#include "util/simd.hh"
#include "verify/failpoint.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

struct LayerMetric
{
    const char *name;
    const char *unit;
};

/** Per-layer metrics, grouped by layer (see README.md for the map). */
constexpr LayerMetric kLayers[] = {
    {"sim.simulations", "count"},
    {"sim.simulate_s", "s"},
    {"sim.cycles", "count"},
    {"sim.cycles_per_s", "cycles/s"},
    {"runner.training_s", "s"},
    {"runner.calibrate_s", "s"},
    {"runner.cell_s", "s"},
    {"runner.pool_busy_frac", "ratio"},
    {"runner.repo_hit_ratio", "ratio"},
    {"runner.repo_wait_s", "s"},
    {"runner.serialize_s", "s"},
    {"core.profile_trace_s", "s"},
    {"core.estimate_s", "s"},
    {"core.cosim_s", "s"},
    {"core.control_stall_cycles", "count"},
    {"power.measure_s", "s"},
    {"power.network_build_s", "s"},
    {"wavelet.dwt_s", "s"},
    {"serve.queue_ms_mean", "ms"},
    {"serve.merge_ms_mean", "ms"},
    {"serve.execute_ms_mean", "ms"},
    {"serve.serialize_ms_mean", "ms"},
    {"serve.client_overhead_ms_mean", "ms"},
    {"serve.batch_size_mean", "requests"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.span_coverage_pct", "%"},
};

[[noreturn]] void
usage(const std::string &problem)
{
    std::cerr << "didt_perfbench: " << problem << "\n"
              << "usage: didt_perfbench --workload "
                 "sweep|montecarlo|serve|control --seed N --seconds S "
                 "--trace 0|1 [--size full|tiny] [--out-dir DIR] "
                 "[--serve-bin PATH]\n";
    std::exit(2);
}

RunOptions
parse(int argc, char **argv)
{
    RunOptions options;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                options.workload = value;
                haveWorkload = true;
            } else if (flag == "--seed") {
                options.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                options.seconds = std::stod(value);
                if (!(options.seconds > 0.0))
                    usage("--seconds must be positive");
            } else if (flag == "--trace") {
                if (value != "0" && value != "1")
                    usage("--trace takes 0 or 1");
                options.trace = value == "1";
            } else if (flag == "--size") {
                if (value != "full" && value != "tiny")
                    usage("--size takes full or tiny");
                options.tiny = value == "tiny";
            } else if (flag == "--out-dir") {
                options.outDir = value;
            } else if (flag == "--serve-bin") {
                options.serveBinary = value;
            } else {
                usage("unknown option " + flag);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    return options;
}

std::string
quoted(const std::string &s)
{
    return "\"" + s + "\"";
}

} // namespace

void
emitEndToEnd(Report &report, const EndToEnd &e)
{
    std::vector<double> cellRates;
    std::vector<double> cycleRates;
    std::string roundSeconds;
    for (const EndToEnd::Round &r : e.rounds) {
        cellRates.push_back(r.cells / r.seconds);
        cycleRates.push_back(r.cycles / r.seconds);
        roundSeconds += (roundSeconds.empty() ? "" : ", ") +
                        didt::jsonNumber(r.seconds);
    }
    report.context("round_s", "[" + roundSeconds + "]");
    report.metric("setup_s", median(e.setupSeconds), "s");
    report.metric("cells_per_s", median(cellRates), "1/s");
    report.metric("cycles_per_s", median(cycleRates), "cycles/s");
    report.metric("request_ms_p50", quantile(e.requestMs, 0.50), "ms");
    report.metric("request_ms_p95", quantile(e.requestMs, 0.95), "ms");
    report.metric("peak_rss_mb", e.peakRssMb, "MB");
}

void
emitLayers(Report &report, const LayerValues &values)
{
    for (const auto &[name, value] : values) {
        bool known = false;
        for (const LayerMetric &m : kLayers)
            known = known || name == m.name;
        if (!known)
            throw std::logic_error("unknown per-layer metric " + name);
    }
    for (const LayerMetric &m : kLayers) {
        const auto it = values.find(m.name);
        report.metric(m.name, it == values.end() ? 0.0 : it->second, m.unit);
    }
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const RunOptions options = parse(argc, argv);
    void (*run)(const RunOptions &, Report &) = nullptr;
    if (options.workload == "sweep")
        run = runSweep;
    else if (options.workload == "montecarlo")
        run = runMonteCarlo;
    else if (options.workload == "serve")
        run = runServe;
    else if (options.workload == "control")
        run = runControl;
    else
        usage("unknown workload " + options.workload);

    Report report;
    report.context("workload", quoted(options.workload));
    report.context("seed", std::to_string(options.seed));
    report.context("trace", options.trace ? "true" : "false");
    report.context("size", quoted(options.tiny ? "tiny" : "full"));
    report.context("nproc",
                   std::to_string(std::thread::hardware_concurrency()));
    report.context("simd", quoted(didt::simd::levelName(
                               didt::simd::activeLevel())));
    report.context("build_type", quoted(PERFBENCH_BUILD_TYPE));
#ifdef DIDT_FAILPOINTS_OFF
    report.context("failpoints", "false");
#else
    report.context("failpoints", "true");
#endif
    try {
        // Fault injection for the benchmark's own tests, through the
        // repository's usual DIDT_FAILPOINTS variable.
        didt::verify::armFailPointsFromEnv();
        makeDirs(options.outDir);
        const CpuTicks before = CpuTicks::now();
        run(options, report);
        report.context("steal_pct",
                       didt::jsonNumber(stealPercent(before, CpuTicks::now())));
    } catch (const std::exception &e) {
        std::cerr << "didt_perfbench: " << options.workload
                  << " cannot complete: " << e.what() << "\n";
        return 1;
    }
    for (const std::string &line : report.notes())
        std::cout << "# " << line << "\n";
    std::cout << report.contextJson() << "\n" << report.json() << std::endl;
    return 0;
}
