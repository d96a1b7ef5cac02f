/**
 * @file
 * Paper Figure 4: current waveform and scalogram for a 256-cycle
 * window of gzip.
 *
 * Prints the per-cycle current of the selected window as an ASCII
 * strip chart and the detail-coefficient scalogram below it
 * (approximation coefficients excluded, matching the paper).
 */

#include "bench_common.hh"

using namespace didt;

int
main(int argc, char **argv)
{
    Options opts;
    bench::declareCommonOptions(opts);
    opts.declare("benchmark", "gzip", "SPEC benchmark to analyze");
    opts.declare("offset", "20000", "window start cycle within the trace");
    opts.parse(argc, argv);

    const ExperimentSetup setup = makeStandardSetup();
    bench::banner(setup);

    const BenchmarkProfile &prof = profileByName(opts.get("benchmark"));
    const CurrentTrace trace = benchmarkCurrentTrace(
        setup, prof, static_cast<std::uint64_t>(opts.getInt("instructions")),
        static_cast<std::uint64_t>(opts.getInt("seed")));

    const auto offset = static_cast<std::size_t>(opts.getInt("offset"));
    if (offset + 256 > trace.size())
        didt_fatal("offset ", offset, " leaves no full 256-cycle window");
    const std::vector<double> window(trace.begin() + offset,
                                     trace.begin() + offset + 256);

    // Strip chart of the current waveform (paper Figure 4, top).
    RunningStats stats;
    for (double amp : window)
        stats.push(amp);
    std::printf("current waveform, cycles %zu-%zu (min %.1f A, max %.1f A, "
                "mean %.1f A):\n",
                offset, offset + 255, stats.min(), stats.max(),
                stats.mean());
    constexpr int kRows = 12;
    for (int row = kRows - 1; row >= 0; --row) {
        const double level =
            stats.min() +
            (stats.max() - stats.min()) * (row + 0.5) / kRows;
        std::fputs("  |", stdout);
        for (std::size_t n = 0; n < 256; n += 2)
            std::fputc(std::max(window[n], window[n + 1]) >= level ? '#'
                                                                   : ' ',
                       stdout);
        std::fputs("|\n", stdout);
    }

    // Scalogram (paper Figure 4, bottom).
    const Dwt dwt(WaveletBasis::haar());
    const FlatDecomposition dec = dwt.forward(window, 8);
    const Scalogram scalogram(dec);
    std::printf("\nscalogram (detail coefficients, darker = larger "
                "|d[j,k]|):\n");
    scalogram.renderAscii(std::cout, 128);

    // Tabular form for re-plotting.
    Table table({"scale", "k", "magnitude"});
    for (std::size_t j = 0; j < scalogram.scales(); ++j) {
        for (std::size_t k = 0; k < scalogram.row(j).size(); ++k) {
            table.newRow();
            table.add(static_cast<long long>(j));
            table.add(static_cast<long long>(k));
            table.add(scalogram.row(j)[k], 4);
        }
    }
    const std::string path = opts.get("csv");
    if (!path.empty()) {
        table.writeCsvFile(path);
        std::printf("(csv written to %s)\n", path.c_str());
    }
    return 0;
}
