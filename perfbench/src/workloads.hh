/**
 * @file
 * The four perfbench workloads and the metric names they report.
 *
 * Every run reports the same metric set whatever its workload: the
 * end-to-end metrics untraced, the per-layer metrics traced. A layer a
 * workload does not reach reports 0 on it. perfbench/README.md maps
 * each metric to the layer and workload it should move.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <map>
#include <string>

#include "harness.hh"

namespace perfbench
{

/** Per-layer values of a traced run, by metric name. */
using LayerValues = std::map<std::string, double>;

/**
 * End-to-end metrics every untraced run reports. A "cell" is one unit
 * of characterization output (a campaign cell; a closed-loop run in
 * control), a "request" the unit a caller waits for (a campaign, a
 * served request, a closed-loop run).
 */
struct EndToEnd
{
    std::vector<double> setupSeconds; ///< one per set-up, median reported

    /** One timed round: its wall and the cells and cycles it did. */
    struct Round
    {
        double seconds = 0.0;
        double cells = 0.0;
        double cycles = 0.0; ///< trace or simulated cycles
    };
    /** Throughputs are the median over rounds. */
    std::vector<Round> rounds;

    std::vector<double> requestMs; ///< per-request latency
    double peakRssMb = 0.0;        ///< VmHWM of the working process
};

/** Report @p e under the end-to-end metric names. */
void emitEndToEnd(Report &report, const EndToEnd &e);

/** Report @p values under every per-layer name (absent names as 0);
 *  throws on a name outside the per-layer set. */
void emitLayers(Report &report, const LayerValues &values);

void runSweep(const RunOptions &options, Report &report);
void runMonteCarlo(const RunOptions &options, Report &report);
void runServe(const RunOptions &options, Report &report);
void runControl(const RunOptions &options, Report &report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
