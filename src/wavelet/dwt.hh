/**
 * @file
 * Fast discrete wavelet transform (Mallat's pyramid algorithm).
 *
 * Implements the O(N) fast wavelet transform the paper relies on
 * (Section 2.1), with periodic boundary extension. The decomposition
 * is a dyadic FlatDecomposition: detail coefficients per level plus
 * the final approximation, the coefficient matrix of paper Figure 2.
 */

#ifndef DIDT_WAVELET_DWT_HH
#define DIDT_WAVELET_DWT_HH

#include <cstddef>
#include <span>
#include <vector>

#include "wavelet/basis.hh"
#include "wavelet/flat_decomposition.hh"

namespace didt
{

/**
 * Discrete wavelet transform engine for a fixed basis.
 *
 * Uses periodic signal extension, so perfect reconstruction holds for
 * any signal whose length is divisible by 2^levels.
 */
class Dwt
{
  public:
    /** @param basis the wavelet basis (filters) to use. */
    explicit Dwt(WaveletBasis basis);

    /** The basis in use. */
    const WaveletBasis &basis() const { return basis_; }

    /**
     * Forward transform into caller-owned storage. @p out is re-laid
     * out for the signal and @p ws supplies the inter-level scratch;
     * once both have reached capacity the call performs no heap
     * allocation.
     *
     * @param signal input samples; length must be divisible by 2^levels
     * @param levels number of decomposition levels (>= 1)
     */
    void forward(std::span<const double> signal, std::size_t levels,
                 FlatDecomposition &out, DwtWorkspace &ws) const;

    /**
     * Inverse transform into caller-owned storage. @p out must have
     * exactly dec.signalLength() samples.
     */
    void inverse(const FlatDecomposition &dec, std::span<double> out,
                 DwtWorkspace &ws) const;

    /** Forward transform into a fresh decomposition (cold paths). */
    FlatDecomposition forward(std::span<const double> signal,
                              std::size_t levels) const;

    /** Inverse transform into a fresh signal (cold paths): exact
     *  reconstruction of the original signal. */
    std::vector<double> inverse(const FlatDecomposition &dec) const;

    /**
     * Single analysis step into caller storage: split @p input into
     * approximation and detail halves. @p input length must be even;
     * @p approx and @p detail must each hold input.size() / 2 samples
     * and must not alias @p input.
     */
    void analyzeStep(std::span<const double> input,
                     std::span<double> approx,
                     std::span<double> detail) const;

    /**
     * Single synthesis step into caller storage: merge approximation
     * and detail halves into @p out, which must hold twice their
     * length and must not alias either input.
     */
    void synthesizeStep(std::span<const double> approx,
                        std::span<const double> detail,
                        std::span<double> out) const;

    /**
     * Largest number of levels applicable to a signal of length @p n
     * (limited by divisibility by two and by filter length).
     */
    std::size_t maxLevels(std::size_t n) const;

  private:
    WaveletBasis basis_;
};

} // namespace didt

#endif // DIDT_WAVELET_DWT_HH
