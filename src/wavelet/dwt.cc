#include "wavelet/dwt.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/simd.hh"

namespace didt
{

Dwt::Dwt(WaveletBasis basis)
    : basis_(std::move(basis))
{
}

void
Dwt::analyzeStep(std::span<const double> input, std::span<double> approx,
                 std::span<double> detail) const
{
    const std::size_t n = input.size();
    if (n % 2 != 0 || n == 0)
        didt_panic("analyzeStep needs even non-zero length, got ", n);
    const std::size_t half = n / 2;
    if (approx.size() != half || detail.size() != half)
        didt_panic("analyzeStep: output halves must hold ", half,
                   " samples, got ", approx.size(), " and ",
                   detail.size());

    const auto &h = basis_.lowpass();
    const auto &g = basis_.highpass();
    const std::size_t flen = h.size();

    // Outputs with the filter fully inside the signal need no periodic
    // wrap, so the hot region runs modulo-free through the dispatched
    // SIMD kernel; only the tail wraps. The kernel accumulates each
    // output in the scalar order (vector lanes are independent
    // outputs), so the results are bit-identical to the single general
    // loop at every dispatch level.
    const std::size_t no_wrap =
        flen <= n ? std::min(half, (n - flen) / 2 + 1) : 0;
    if (no_wrap > 0)
        simd::kernels().dwtAnalyze(input.data(), no_wrap, h.data(),
                                   g.data(), flen, approx.data(),
                                   detail.data());
    for (std::size_t k = no_wrap; k < half; ++k) {
        double a = 0.0;
        double d = 0.0;
        for (std::size_t m = 0; m < flen; ++m) {
            const std::size_t idx = (2 * k + m) % n; // periodic extension
            a += h[m] * input[idx];
            d += g[m] * input[idx];
        }
        approx[k] = a;
        detail[k] = d;
    }
}

void
Dwt::synthesizeStep(std::span<const double> approx,
                    std::span<const double> detail,
                    std::span<double> out) const
{
    const std::size_t half = approx.size();
    if (detail.size() != half)
        didt_panic("synthesizeStep: approx/detail size mismatch ", half,
                   " vs ", detail.size());
    if (half == 0)
        didt_panic("synthesizeStep on empty halves");
    const std::size_t n = 2 * half;
    if (out.size() != n)
        didt_panic("synthesizeStep: output must hold ", n,
                   " samples, got ", out.size());

    const auto &h = basis_.lowpass();
    const auto &g = basis_.highpass();
    const std::size_t flen = h.size();

    std::fill(out.begin(), out.end(), 0.0);
    // Same modulo-free split as analyzeStep. The kernel recasts the
    // (k, m) scatter as a per-output gather whose accumulation order
    // per output index is exactly the scalar k-ascending order, and
    // the wrapped tail below adds its (larger-k) contributions on top,
    // so out is bit-identical to the single general scatter loop.
    const std::size_t no_wrap =
        flen <= n ? std::min(half, (n - flen) / 2 + 1) : 0;
    if (no_wrap > 0 && flen % 2 == 0) {
        simd::kernels().dwtSynthesize(approx.data(), detail.data(),
                                      no_wrap, h.data(), g.data(), flen,
                                      out.data());
    } else {
        for (std::size_t k = 0; k < no_wrap; ++k) {
            double *o = out.data() + 2 * k;
            const double a = approx[k];
            const double d = detail[k];
            for (std::size_t m = 0; m < flen; ++m)
                o[m] += h[m] * a + g[m] * d;
        }
    }
    for (std::size_t k = no_wrap; k < half; ++k) {
        for (std::size_t m = 0; m < flen; ++m) {
            const std::size_t idx = (2 * k + m) % n;
            out[idx] += h[m] * approx[k] + g[m] * detail[k];
        }
    }
}

std::size_t
Dwt::maxLevels(std::size_t n) const
{
    std::size_t levels = 0;
    while (n % 2 == 0 && n / 2 >= 1 && n >= basis_.length()) {
        n /= 2;
        ++levels;
    }
    return levels;
}

void
Dwt::forward(std::span<const double> signal, std::size_t levels,
             FlatDecomposition &out, DwtWorkspace &ws) const
{
    if (levels == 0)
        didt_panic("forward() requires at least one level");
    const std::size_t n = signal.size();
    if (n == 0)
        didt_panic("forward() on empty signal");
    if (n % (std::size_t(1) << levels) != 0)
        didt_panic("signal length ", n, " not divisible by 2^", levels);

    out.layoutDyadic(n, levels);

    // Ping/pong the approximation chain between the two scratch
    // buffers; details land directly in their final rows, and the last
    // approximation half is written straight into the output row.
    ws.ping.resize(n);
    ws.pong.resize(n / 2);
    std::copy(signal.begin(), signal.end(), ws.ping.begin());

    double *current = ws.ping.data();
    double *other = ws.pong.data();
    std::size_t len = n;
    for (std::size_t level = 0; level < levels; ++level) {
        const std::span<const double> input(current, len);
        len /= 2;
        const std::span<double> approx =
            level + 1 == levels ? out.approximation()
                                : std::span<double>(other, len);
        analyzeStep(input, approx, out.detail(level));
        std::swap(current, other);
    }
}

void
Dwt::inverse(const FlatDecomposition &dec, std::span<double> out,
             DwtWorkspace &ws) const
{
    const std::size_t levels = dec.levels();
    if (levels == 0)
        didt_panic("inverse() on empty decomposition");
    const std::size_t n = dec.signalLength();
    if (out.size() != n)
        didt_panic("inverse() output must hold ", n, " samples, got ",
                   out.size());

    ws.ping.resize(n);
    ws.pong.resize(n / 2);
    const std::span<const double> approx = dec.approximation();
    std::copy(approx.begin(), approx.end(), ws.ping.begin());

    double *current = ws.ping.data();
    double *other = ws.pong.data();
    std::size_t len = approx.size();
    for (std::size_t level = levels; level-- > 0;) {
        const std::span<double> merged =
            level == 0 ? out : std::span<double>(other, 2 * len);
        synthesizeStep(std::span<const double>(current, len),
                       dec.detail(level), merged);
        len *= 2;
        std::swap(current, other);
    }
    if (len != n)
        didt_panic("inverse() produced length ", len, ", expected ", n);
}

FlatDecomposition
Dwt::forward(std::span<const double> signal, std::size_t levels) const
{
    FlatDecomposition dec;
    DwtWorkspace ws;
    forward(signal, levels, dec, ws);
    return dec;
}

std::vector<double>
Dwt::inverse(const FlatDecomposition &dec) const
{
    std::vector<double> out(dec.signalLength());
    DwtWorkspace ws;
    inverse(dec, out, ws);
    return out;
}

} // namespace didt
