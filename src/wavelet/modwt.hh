/**
 * @file
 * Maximal-overlap discrete wavelet transform (MODWT).
 *
 * The paper's wavelet-variance methodology follows Serroukh, Walden &
 * Percival (its reference [19]), whose estimator is defined on the
 * *undecimated* transform: every level keeps one coefficient per
 * sample, making the per-scale variance estimator shift-invariant and
 * statistically efficient (no dependence on how the dyadic grid lands
 * on the signal). This module implements the MODWT pyramid with the
 * standard 1/sqrt(2) filter rescaling, its inverse, and the unbiased
 * wavelet-variance estimator, as an alternative front end for the
 * characterization model (see `bench/ablation_modwt`).
 */

#ifndef DIDT_WAVELET_MODWT_HH
#define DIDT_WAVELET_MODWT_HH

#include <cstddef>
#include <span>
#include <vector>

#include "wavelet/basis.hh"
#include "wavelet/flat_decomposition.hh"

namespace didt
{

/** MODWT engine for a fixed basis (periodic boundary handling). */
class Modwt
{
  public:
    /** @param basis wavelet basis; filters are rescaled by 1/sqrt 2. */
    explicit Modwt(WaveletBasis basis);

    /**
     * Forward transform into caller-owned storage (uniform flat
     * layout: every row, including the smooth row exposed as
     * approximation(), has signal-length coefficients). Unlike the
     * decimated DWT the signal length only needs to be >= the filter
     * length (no divisibility requirement), but must be non-zero.
     * Allocation-free once @p out and @p ws have reached capacity.
     */
    void forward(std::span<const double> signal, std::size_t levels,
                 FlatDecomposition &out, DwtWorkspace &ws) const;

    /** Forward transform into a fresh decomposition (cold paths). */
    FlatDecomposition forward(std::span<const double> signal,
                              std::size_t levels) const;

    /** Inverse transform of a uniform-layout decomposition (exact
     *  reconstruction). */
    std::vector<double> inverse(const FlatDecomposition &dec) const;

    /**
     * Per-scale wavelet variance: writes nu_j^2, the mean of squared
     * level-j MODWT detail coefficients, into @p out (which must hold
     * exactly @p levels values). This is the biased-at-boundaries
     * periodic estimator of Percival; by the MODWT energy
     * decomposition the levels plus smooth variance sum to the sample
     * variance. The decomposition is never materialized: detail rows
     * are reduced level by level out of workspace scratch.
     */
    void waveletVariance(std::span<const double> signal,
                         std::size_t levels, std::span<double> out,
                         DwtWorkspace &ws) const;

    /** Per-scale wavelet variance into a fresh vector (cold paths). */
    std::vector<double> waveletVariance(std::span<const double> signal,
                                        std::size_t levels) const;

    /** The basis in use (original, unscaled filters). */
    const WaveletBasis &basis() const { return basis_; }

  private:
    WaveletBasis basis_;
    std::vector<double> h_; ///< rescaled low-pass
    std::vector<double> g_; ///< rescaled high-pass
};

} // namespace didt

#endif // DIDT_WAVELET_MODWT_HH
