/**
 * @file
 * Wavelet subband projection (paper Section 2.2, Equations 4-5).
 *
 * A subband is the time-domain projection of one row of the wavelet
 * coefficient matrix. Summing all subbands (details plus approximation)
 * recreates the original signal; dropping subbands filters it.
 */

#ifndef DIDT_WAVELET_SUBBAND_HH
#define DIDT_WAVELET_SUBBAND_HH

#include <cstddef>
#include <span>

#include "wavelet/dwt.hh"

namespace didt
{

/**
 * Project detail level @p level (0 = finest) of @p dec back into the
 * time domain: write into @p out (which must hold dec.signalLength()
 * samples) a signal containing only that level's contribution. @p dwt
 * must use the same basis as @p dec; @p ws supplies the masked copy
 * and pyramid scratch, so the call is allocation-free once the
 * workspace has reached capacity.
 */
void detailSubband(const Dwt &dwt, const FlatDecomposition &dec,
                   std::size_t level, std::span<double> out,
                   DwtWorkspace &ws);

/** Project the approximation row back into the time domain. */
void approximationSubband(const Dwt &dwt, const FlatDecomposition &dec,
                          std::span<double> out, DwtWorkspace &ws);

/**
 * Reconstruct keeping only the detail levels listed in @p keep_levels
 * (plus the approximation when @p keep_approximation). This implements
 * the paper's subband filtering: "if we choose to ignore some subbands
 * ... we are effectively filtering the original signal."
 */
void filteredReconstruction(const Dwt &dwt, const FlatDecomposition &dec,
                            std::span<const std::size_t> keep_levels,
                            bool keep_approximation, std::span<double> out,
                            DwtWorkspace &ws);

/**
 * Nominal frequency band of a detail level in cycles^-1, mapped to hertz
 * with @p clock_hz. Level j (0 = finest) spans
 * [clock / 2^(j+2), clock / 2^(j+1)].
 */
struct SubbandFrequency
{
    double lowHz;  ///< lower band edge
    double highHz; ///< upper band edge
};

/** Frequency band covered by detail level @p level at @p clock_hz. */
SubbandFrequency detailBandFrequency(std::size_t level, double clock_hz);

} // namespace didt

#endif // DIDT_WAVELET_SUBBAND_HH
