#include "wavelet/scalogram.hh"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "util/logging.hh"

namespace didt
{

Scalogram::Scalogram(const FlatDecomposition &dec)
    : signalLength_(dec.signalLength()), maxMagnitude_(0.0)
{
    magnitudes_.reserve(dec.levels());
    for (std::size_t j = 0; j < dec.levels(); ++j) {
        const std::span<const double> level = dec.detail(j);
        std::vector<double> mags(level.size());
        for (std::size_t k = 0; k < level.size(); ++k) {
            mags[k] = std::fabs(level[k]);
            maxMagnitude_ = std::max(maxMagnitude_, mags[k]);
        }
        magnitudes_.push_back(std::move(mags));
    }
}

const std::vector<double> &
Scalogram::row(std::size_t j) const
{
    if (j >= magnitudes_.size())
        didt_panic("Scalogram row ", j, " out of range");
    return magnitudes_[j];
}

void
Scalogram::renderAscii(std::ostream &os, std::size_t time_width) const
{
    static const char shades[] = " .:-=+*%#";
    const std::size_t nshades = sizeof(shades) - 2;

    for (std::size_t j = 0; j < magnitudes_.size(); ++j) {
        const auto &mags = magnitudes_[j];
        os << "scale " << j << " |";
        for (std::size_t col = 0; col < time_width; ++col) {
            // Map the output column back to a coefficient index.
            const std::size_t k =
                col * mags.size() / std::max<std::size_t>(1, time_width);
            double v = 0.0;
            if (maxMagnitude_ > 0.0)
                v = mags[std::min(k, mags.size() - 1)] / maxMagnitude_;
            const auto shade = static_cast<std::size_t>(
                std::lround(v * static_cast<double>(nshades)));
            os << shades[std::min(shade, nshades)];
        }
        os << "|\n";
    }
}

void
Scalogram::writeCsv(std::ostream &os) const
{
    os << "scale,k,magnitude\n";
    for (std::size_t j = 0; j < magnitudes_.size(); ++j)
        for (std::size_t k = 0; k < magnitudes_[j].size(); ++k)
            os << j << ',' << k << ',' << magnitudes_[j][k] << '\n';
}

} // namespace didt
