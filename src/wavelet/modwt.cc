#include "wavelet/modwt.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/simd.hh"

namespace didt
{

namespace
{

/**
 * One MODWT analysis step at the given filter stride: convolve
 * @p current with the upsampled rescaled filters, writing scaling
 * coefficients to @p next and wavelet coefficients to @p detail.
 * Neither output may alias @p current.
 */
void
modwtStep(std::span<const double> current, std::size_t stride,
          std::span<const double> h, std::span<const double> g,
          std::span<double> next, std::span<double> detail)
{
    const std::size_t n = current.size();
    const std::size_t flen = h.size();

    // Outputs at t >= stride * (flen - 1) read every tap without
    // wrapping (the depth check in the callers guarantees this region
    // is non-empty for real filters), so they run through the
    // dispatched modulo-free SIMD kernel; only the head wraps. Tap
    // order per output is unchanged, so results stay bit-identical.
    const std::size_t wrap_head =
        flen >= 1 && stride * (flen - 1) < n ? stride * (flen - 1) : n;
    for (std::size_t t = 0; t < wrap_head; ++t) {
        double a = 0.0;
        double d = 0.0;
        std::size_t idx = t;
        for (std::size_t l = 0; l < flen; ++l) {
            a += h[l] * current[idx];
            d += g[l] * current[idx];
            // idx = (t - stride * (l + 1)) mod n, walked backward.
            idx = (idx + n - stride % n) % n;
        }
        next[t] = a;
        detail[t] = d;
    }
    if (wrap_head < n)
        simd::kernels().modwtStep(current.data(), wrap_head,
                                  n - wrap_head, stride, h.data(),
                                  g.data(), flen, next.data(),
                                  detail.data());
}

} // namespace

Modwt::Modwt(WaveletBasis basis)
    : basis_(std::move(basis))
{
    const double scale = 1.0 / std::sqrt(2.0);
    h_.reserve(basis_.length());
    g_.reserve(basis_.length());
    for (double c : basis_.lowpass())
        h_.push_back(c * scale);
    for (double c : basis_.highpass())
        g_.push_back(c * scale);
}

void
Modwt::forward(std::span<const double> signal, std::size_t levels,
               FlatDecomposition &out, DwtWorkspace &ws) const
{
    const std::size_t n = signal.size();
    if (n == 0)
        didt_panic("Modwt::forward on empty signal");
    if (levels == 0)
        didt_panic("Modwt::forward requires at least one level");
    // Upsampled filter span must fit the (periodic) signal to make
    // statistical sense.
    if ((std::size_t(1) << (levels - 1)) * (h_.size() - 1) >= n)
        didt_fatal("MODWT depth ", levels, " too deep for signal length ",
                   n);

    out.layoutUniform(n, levels);
    ws.ping.resize(n);
    ws.pong.resize(n);
    std::copy(signal.begin(), signal.end(), ws.ping.begin());

    double *current = ws.ping.data();
    double *next = ws.pong.data();
    for (std::size_t j = 1; j <= levels; ++j) {
        const std::size_t stride = std::size_t(1) << (j - 1);
        modwtStep(std::span<const double>(current, n), stride, h_, g_,
                  std::span<double>(next, n), out.detail(j - 1));
        std::swap(current, next);
    }
    const std::span<double> smooth = out.approximation();
    std::copy(current, current + n, smooth.begin());
}

FlatDecomposition
Modwt::forward(std::span<const double> signal, std::size_t levels) const
{
    FlatDecomposition dec;
    DwtWorkspace ws;
    forward(signal, levels, dec, ws);
    return dec;
}

std::vector<double>
Modwt::inverse(const FlatDecomposition &dec) const
{
    if (dec.levels() == 0)
        didt_panic("Modwt::inverse on empty decomposition");
    const std::size_t n = dec.signalLength();
    const std::span<const double> smooth = dec.approximation();
    if (smooth.size() != n)
        didt_panic("MODWT level size mismatch");

    std::vector<double> current(smooth.begin(), smooth.end());
    std::vector<double> prev(n);
    for (std::size_t j = dec.levels(); j >= 1; --j) {
        const std::size_t stride = std::size_t(1) << (j - 1);
        const std::span<const double> detail = dec.detail(j - 1);
        if (detail.size() != n)
            didt_panic("MODWT level size mismatch");
        for (std::size_t t = 0; t < n; ++t) {
            double x = 0.0;
            std::size_t idx = t;
            for (std::size_t l = 0; l < h_.size(); ++l) {
                x += h_[l] * current[idx] + g_[l] * detail[idx];
                // idx = (t + stride * (l + 1)) mod n, walked forward.
                idx = (idx + stride) % n;
            }
            prev[t] = x;
        }
        current.swap(prev);
    }
    return current;
}

void
Modwt::waveletVariance(std::span<const double> signal, std::size_t levels,
                       std::span<double> out, DwtWorkspace &ws) const
{
    if (out.size() != levels)
        didt_panic("waveletVariance output must hold ", levels,
                   " values, got ", out.size());
    const std::size_t n = signal.size();
    if (n == 0)
        didt_panic("Modwt::forward on empty signal");
    if (levels == 0)
        didt_panic("Modwt::forward requires at least one level");
    if ((std::size_t(1) << (levels - 1)) * (h_.size() - 1) >= n)
        didt_fatal("MODWT depth ", levels, " too deep for signal length ",
                   n);

    // Reduce each detail row to its energy as it is produced, so only
    // three signal-length rows of scratch are ever live.
    ws.ping.resize(n);
    ws.pong.resize(n);
    ws.extra.resize(n);
    std::copy(signal.begin(), signal.end(), ws.ping.begin());

    double *current = ws.ping.data();
    double *next = ws.pong.data();
    const std::span<double> detail(ws.extra.data(), n);
    for (std::size_t j = 1; j <= levels; ++j) {
        const std::size_t stride = std::size_t(1) << (j - 1);
        modwtStep(std::span<const double>(current, n), stride, h_, g_,
                  std::span<double>(next, n), detail);
        double energy = 0.0;
        for (double w : detail)
            energy += w * w;
        out[j - 1] = energy / static_cast<double>(n);
        std::swap(current, next);
    }
}

std::vector<double>
Modwt::waveletVariance(std::span<const double> signal,
                       std::size_t levels) const
{
    std::vector<double> variance(levels);
    DwtWorkspace ws;
    waveletVariance(signal, levels, variance, ws);
    return variance;
}

} // namespace didt
