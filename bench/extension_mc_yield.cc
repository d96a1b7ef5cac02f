/**
 * @file
 * Extension experiment beyond the paper: variation-aware yield curves.
 *
 * The paper characterizes one nominal supply network per impedance
 * scale. Real silicon spreads: die-to-die variation moves the DC
 * resistance, resonant frequency, and Q of every shipped chip. This
 * bench runs the Section-4 characterization as a Monte Carlo campaign
 * — N supply-network draws per (benchmark, scale) cell — and prints
 * the yield curve: for each emergency-percentage budget, the fraction
 * of drawn chips whose measured emergency rate exceeds it, plus the
 * quantile band of the emergency rate across draws. Sampled simulation
 * defaults keep hundreds of draws tractable; draws share one simulated
 * trace per workload, so the sweep cost is the voltage analysis, not
 * the simulation.
 */

#include "bench_common.hh"

#include "runner/campaign.hh"
#include "runner/result_json.hh"
#include "runner/trace_repository.hh"
#include "stats/quantiles.hh"

using namespace didt;

int
main(int argc, char **argv)
{
    Options opts;
    bench::declareCommonOptions(opts);
    opts.declare("benchmarks", "gzip,mcf,galgel,swim",
                 "comma-separated benchmark subset");
    opts.declare("impedance", "1.2", "target-impedance scale");
    opts.declare("draws", "200", "Monte Carlo draws per cell");
    opts.declare("mc-seed", "1", "campaign-level Monte Carlo seed");
    opts.declare("sigma", "0.08",
                 "lognormal sigma on R and resonance placement");
    opts.declare("sigma-q", "0.05", "lognormal sigma on quality factor");
    opts.declare("jobs", "0", "worker threads (0 = hardware)");
    opts.parse(argc, argv);
    bench::beginObs(opts);

    const ExperimentSetup setup = makeStandardSetup();
    bench::banner(setup);

    CampaignSpec spec;
    {
        std::string list = opts.get("benchmarks");
        std::size_t pos = 0;
        while (pos < list.size()) {
            const std::size_t comma = list.find(',', pos);
            spec.profiles.push_back(
                profileByName(list.substr(pos, comma - pos)));
            if (comma == std::string::npos)
                break;
            pos = comma + 1;
        }
    }
    spec.impedanceScales = {opts.getDouble("impedance")};
    spec.instructions =
        static_cast<std::uint64_t>(opts.getInt("instructions"));
    spec.seed = static_cast<std::uint64_t>(opts.getInt("seed"));
    spec.windowLength = 128;
    spec.levels = 6;
    // Sampled simulation: the draws reuse one trace per benchmark, so
    // only the first touch of each benchmark pays simulation cost —
    // but for the long default instruction budget that first touch
    // dominates; SimPoint sampling keeps it proportionate.
    spec.sampleDetail = 2048;
    spec.sampleSkip = 8192;
    spec.sampleWarmup = 512;
    spec.mcDraws = static_cast<std::size_t>(opts.getInt("draws"));
    spec.mcSeed = static_cast<std::uint64_t>(opts.getInt("mc-seed"));
    spec.mcSigmaR = opts.getDouble("sigma");
    spec.mcSigmaResonance = opts.getDouble("sigma");
    spec.mcSigmaQ = opts.getDouble("sigma-q");
    if (std::string error; !spec.validate(&error))
        didt_fatal("invalid campaign spec: ", error);

    TraceRepository repo(setup);
    const CampaignResult result = runCharacterizationCampaign(
        setup, spec, repo,
        static_cast<std::size_t>(opts.getInt("jobs")));

    // Per-benchmark quantile band and yield curve, recomputed here
    // from the cells (the JSON writer does the same aggregation).
    const double budgets[] = {0.01, 0.1, 0.5, 1.0, 2.0, 5.0};
    Table table({"benchmark", "draws", "emerg_p05_pct", "emerg_p50_pct",
                 "emerg_p95_pct", "gt_0.1pct", "gt_1pct", "gt_5pct"});
    const std::size_t draws = spec.drawCount();
    for (std::size_t base = 0; base + draws <= result.cells.size();
         base += draws) {
        EmpiricalDistribution emergency;
        for (std::size_t di = 0; di < draws; ++di) {
            const CampaignCell &cell = result.cells[base + di];
            if (!cell.failed)
                emergency.push(cell.measuredBelowPct +
                               cell.measuredAbovePct);
        }
        if (emergency.count() == 0)
            continue;
        table.newRow();
        table.add(result.cells[base].benchmark);
        table.add(static_cast<long long>(emergency.count()));
        table.add(emergency.quantile(0.05), 4);
        table.add(emergency.quantile(0.50), 4);
        table.add(emergency.quantile(0.95), 4);
        table.add(emergency.exceedanceFraction(0.1), 4);
        table.add(emergency.exceedanceFraction(1.0), 4);
        table.add(emergency.exceedanceFraction(5.0), 4);
    }
    bench::emit(table, opts,
                "Extension: Monte Carlo yield curves (% of draws whose "
                "emergency rate exceeds each budget)");

    // Full yield curve over all benchmarks pooled, the headline
    // "fraction of shipped chips out of budget" number.
    EmpiricalDistribution pooled;
    for (const CampaignCell &cell : result.cells)
        if (!cell.failed)
            pooled.push(cell.measuredBelowPct + cell.measuredAbovePct);
    if (pooled.count() > 0) {
        std::printf("\npooled yield curve (%zu draws):\n",
                    pooled.count());
        for (double budget : budgets)
            std::printf("  > %5.2f%% budget: %6.2f%% of draws  %s\n",
                        budget,
                        100.0 * pooled.exceedanceFraction(budget),
                        asciiBar(pooled.exceedanceFraction(budget), 1.0)
                            .c_str());
    }
    bench::writeObsOutputs(opts);
    return 0;
}
