#include "wavelet/flat_decomposition.hh"

#include "util/logging.hh"

namespace didt
{

std::span<double>
FlatDecomposition::row(std::size_t index)
{
    return std::span<double>(coeffs_.data() + offsets_[index],
                             offsets_[index + 1] - offsets_[index]);
}

std::span<const double>
FlatDecomposition::row(std::size_t index) const
{
    return std::span<const double>(coeffs_.data() + offsets_[index],
                                   offsets_[index + 1] - offsets_[index]);
}

std::span<double>
FlatDecomposition::detail(std::size_t level)
{
    if (level >= levels())
        didt_panic("FlatDecomposition::detail: level ", level,
                   " out of range (", levels(), " levels)");
    return row(level);
}

std::span<const double>
FlatDecomposition::detail(std::size_t level) const
{
    if (level >= levels())
        didt_panic("FlatDecomposition::detail: level ", level,
                   " out of range (", levels(), " levels)");
    return row(level);
}

std::span<double>
FlatDecomposition::approximation()
{
    if (offsets_.empty())
        didt_panic("FlatDecomposition::approximation before layout");
    return row(levels());
}

std::span<const double>
FlatDecomposition::approximation() const
{
    if (offsets_.empty())
        didt_panic("FlatDecomposition::approximation before layout");
    return row(levels());
}

double
FlatDecomposition::energy() const
{
    double e = 0.0;
    for (double c : coeffs_)
        e += c * c;
    return e;
}

void
FlatDecomposition::layoutDyadic(std::size_t signal_length,
                                std::size_t levels)
{
    if (levels == 0)
        didt_panic("FlatDecomposition layout requires at least one level");
    if (signal_length == 0 ||
        signal_length % (std::size_t(1) << levels) != 0)
        didt_panic("signal length ", signal_length,
                   " not divisible by 2^", levels);

    signalLength_ = signal_length;
    offsets_.resize(levels + 2);
    std::size_t off = 0;
    std::size_t len = signal_length;
    for (std::size_t j = 0; j < levels; ++j) {
        offsets_[j] = off;
        len /= 2;
        off += len;
    }
    offsets_[levels] = off;       // approximation, same size as d(L-1)
    offsets_[levels + 1] = off + len;
    coeffs_.resize(offsets_[levels + 1]);
}

void
FlatDecomposition::layoutUniform(std::size_t signal_length,
                                 std::size_t levels)
{
    if (levels == 0)
        didt_panic("FlatDecomposition layout requires at least one level");
    if (signal_length == 0)
        didt_panic("FlatDecomposition layout on empty signal");

    signalLength_ = signal_length;
    offsets_.resize(levels + 2);
    for (std::size_t j = 0; j < levels + 2; ++j)
        offsets_[j] = j * signal_length;
    coeffs_.resize(offsets_[levels + 1]);
}

} // namespace didt
