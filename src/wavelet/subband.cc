#include "wavelet/subband.hh"

#include <algorithm>

#include "util/logging.hh"

namespace didt
{

namespace
{

/**
 * Copy @p dec into the workspace's masked scratch, zero every detail
 * row for which @p keep_detail returns false (and the approximation
 * row unless @p keep_approx), and run the in-place inverse.
 */
template <typename KeepDetail>
void
projectMasked(const Dwt &dwt, const FlatDecomposition &dec,
              const KeepDetail &keep_detail, bool keep_approx,
              std::span<double> out, DwtWorkspace &ws)
{
    FlatDecomposition &masked = ws.masked;
    masked = dec;
    for (std::size_t j = 0; j < masked.levels(); ++j) {
        if (!keep_detail(j)) {
            const std::span<double> row = masked.detail(j);
            std::fill(row.begin(), row.end(), 0.0);
        }
    }
    if (!keep_approx) {
        const std::span<double> row = masked.approximation();
        std::fill(row.begin(), row.end(), 0.0);
    }
    dwt.inverse(masked, out, ws);
}

} // namespace

void
detailSubband(const Dwt &dwt, const FlatDecomposition &dec,
              std::size_t level, std::span<double> out, DwtWorkspace &ws)
{
    if (level >= dec.levels())
        didt_panic("detailSubband: level ", level, " out of range (",
                   dec.levels(), " levels)");
    projectMasked(
        dwt, dec, [level](std::size_t j) { return j == level; }, false,
        out, ws);
}

void
approximationSubband(const Dwt &dwt, const FlatDecomposition &dec,
                     std::span<double> out, DwtWorkspace &ws)
{
    projectMasked(
        dwt, dec, [](std::size_t) { return false; }, true, out, ws);
}

void
filteredReconstruction(const Dwt &dwt, const FlatDecomposition &dec,
                       std::span<const std::size_t> keep_levels,
                       bool keep_approximation, std::span<double> out,
                       DwtWorkspace &ws)
{
    for (std::size_t level : keep_levels)
        if (level >= dec.levels())
            didt_panic("filteredReconstruction: level ", level,
                       " out of range");
    projectMasked(
        dwt, dec,
        [keep_levels](std::size_t j) {
            return std::find(keep_levels.begin(), keep_levels.end(), j) !=
                   keep_levels.end();
        },
        keep_approximation, out, ws);
}

SubbandFrequency
detailBandFrequency(std::size_t level, double clock_hz)
{
    if (clock_hz <= 0.0)
        didt_panic("detailBandFrequency: clock must be positive");
    const double denom_high = static_cast<double>(std::size_t(1) << (level + 1));
    const double denom_low = denom_high * 2.0;
    return SubbandFrequency{clock_hz / denom_low, clock_hz / denom_high};
}

} // namespace didt
