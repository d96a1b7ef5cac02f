/**
 * @file
 * Paper Figure 9: estimated versus measured percentage of cycles spent
 * below the 0.97 V control point, per benchmark, with the RMS
 * estimation error (paper: 0.94%).
 *
 * The shape claims: mgrid/gcc/galgel/apsi are flagged as problematic
 * (>= 3%), vpr/mcf/equake/gap as benign (< 0.5%), and the estimator
 * tracks the measured ranking.
 *
 * Runs through the campaign runner: the 26 benchmark cells fan out
 * over --jobs worker threads and each trace is simulated once via the
 * shared TraceRepository.
 */

#include <cstdio>
#include <string>

#include "bench_common.hh"

using namespace didt;

int
main(int argc, char **argv)
{
    Options opts;
    bench::declareCommonOptions(opts);
    opts.declare("impedance", "1.25", "target-impedance scale");
    opts.declare("threshold", "0.97", "low control point in volts");
    opts.declare("no-correlation", "false",
                 "ablation: drop the correlation adjustment");
    opts.declare("jobs", "0",
                 "worker threads (0 = one per hardware thread)");
    opts.parse(argc, argv);
    bench::beginObs(opts);

    const ExperimentSetup setup = makeStandardSetup();
    bench::banner(setup);

    CampaignSpec spec;
    spec.impedanceScales = {opts.getDouble("impedance")};
    spec.lowThreshold = opts.getDouble("threshold");
    spec.useCorrelation = !opts.getBool("no-correlation");
    spec.instructions =
        static_cast<std::uint64_t>(opts.getInt("instructions"));
    spec.seed = static_cast<std::uint64_t>(opts.getInt("seed"));
    if (std::string error; !spec.validate(&error))
        didt_fatal("invalid campaign spec: ", error);

    TraceRepository repo(setup);
    const CampaignResult result = runCharacterizationCampaign(
        setup, spec, repo,
        static_cast<std::size_t>(opts.getInt("jobs")));

    Table table({"benchmark", "estimated_pct", "measured_pct", "plot"});
    for (const CampaignCell &cell : result.cells) {
        table.newRow();
        table.add(cell.benchmark);
        table.add(cell.estimatedBelowPct, 2);
        table.add(cell.measuredBelowPct, 2);
        table.add(asciiBar(cell.measuredBelowPct, 8.0, 32));
    }
    bench::emit(table, opts,
                "Figure 9: % cycles below " + opts.get("threshold") +
                    " V, estimated vs measured");
    std::printf("RMS estimation error: %.2f%% (paper: 0.94%%)\n",
                result.rmsEstimationErrorPct());
    bench::writeObsOutputs(opts);
    return 0;
}
