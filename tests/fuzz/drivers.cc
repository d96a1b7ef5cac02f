#include "drivers.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "power/trace_io.hh"
#include "serve/frame.hh"
#include "serve/protocol.hh"
#include "util/json.hh"
#include "wavelet/basis.hh"
#include "wavelet/dwt.hh"
#include "wavelet/modwt.hh"

namespace didt
{
namespace fuzz
{

namespace
{

/** Property check: abort (so the fuzzer minimizes a crasher) instead
 *  of silently tolerating a contract violation. */
void
require(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "fuzz driver property violated: %s\n",
                     what);
        std::abort();
    }
}

} // namespace

int
runJson(const std::uint8_t *data, std::size_t size)
{
    const std::string text(reinterpret_cast<const char *>(data), size);
    try {
        const JsonValue doc = parseJson(text);
        // Anything the parser accepts must serialize and re-parse to
        // an equal document: accepted-but-unwritable values (inf from
        // "1e999") were a real bug in this parser.
        const JsonValue again = parseJson(doc.dump());
        require(again == doc, "json dump/parse round trip");
    } catch (const std::runtime_error &) {
        // Clean parse error: the only allowed failure mode.
    }
    return 0;
}

int
runTraceText(const std::uint8_t *data, std::size_t size)
{
    std::istringstream in(
        std::string(reinterpret_cast<const char *>(data), size));
    const auto trace = tryReadTraceText(in);
    if (!trace)
        return 0;
    // Accepted traces must survive a write/read cycle with the sample
    // count intact (values may legitimately lose low bits to the text
    // format's precision).
    std::ostringstream out;
    writeTraceText(out, *trace);
    std::istringstream back(out.str());
    const auto again = tryReadTraceText(back);
    require(again.has_value(), "text trace re-read");
    require(again->size() == trace->size(), "text trace sample count");
    return 0;
}

int
runTraceBinary(const std::uint8_t *data, std::size_t size)
{
    std::istringstream in(
        std::string(reinterpret_cast<const char *>(data), size));
    const auto trace = tryReadTraceBinary(in);
    if (trace) {
        // The format stores the sample count in the header; a parse
        // that succeeded must have found exactly that much data.
        require(8 + 8 + trace->size() * sizeof(double) <= size,
                "binary trace longer than its input");
    }
    return 0;
}

int
runDwt(const std::uint8_t *data, std::size_t size)
{
    if (size < 1 + sizeof(double))
        return 0;
    const WaveletBasis basis = data[0] % 3 == 0
                                   ? WaveletBasis::haar()
                                   : data[0] % 3 == 1
                                         ? WaveletBasis::daubechies4()
                                         : WaveletBasis::daubechies6();
    ++data;
    --size;

    std::vector<double> signal(size / sizeof(double));
    std::memcpy(signal.data(), data, signal.size() * sizeof(double));
    // Arbitrary bytes decode to arbitrary doubles; fold the ones no
    // finite-energy trace contains so round-trip error stays meaningful.
    double max_abs = 0.0;
    for (double &x : signal) {
        if (!std::isfinite(x) || std::fabs(x) > 1e100)
            x = 0.0;
        max_abs = std::max(max_abs, std::fabs(x));
    }
    const double tol = 1e-8 * (1.0 + max_abs);

    // Decimated DWT: truncate to a multiple of 2^levels.
    constexpr std::size_t levels = 3;
    const std::size_t dwt_len = signal.size() & ~std::size_t{7};
    if (dwt_len >= 8) {
        const Dwt dwt(basis);
        const std::span<const double> head(signal.data(), dwt_len);
        const FlatDecomposition dec = dwt.forward(head, levels);
        require(dec.totalCoefficients() == dwt_len,
                "dwt coefficient count");
        const std::vector<double> back = dwt.inverse(dec);
        require(back.size() == dwt_len, "dwt reconstruction length");
        for (std::size_t i = 0; i < dwt_len; ++i)
            require(std::fabs(back[i] - head[i]) <= tol,
                    "dwt perfect reconstruction");
    }

    // MODWT: the upsampled filter span must fit the signal, so the
    // usable depth depends on both length and basis
    // ((1 << (L-1)) * (filter_len - 1) < n).
    std::size_t modwt_levels = 0;
    while (modwt_levels < levels &&
           (std::size_t{1} << modwt_levels) * (basis.length() - 1) <
               signal.size())
        ++modwt_levels;
    if (modwt_levels >= 1) {
        const Modwt modwt(basis);
        const FlatDecomposition dec =
            modwt.forward(signal, modwt_levels);
        const std::vector<double> back = modwt.inverse(dec);
        require(back.size() == signal.size(),
                "modwt reconstruction length");
        for (std::size_t i = 0; i < signal.size(); ++i)
            require(std::fabs(back[i] - signal[i]) <= tol,
                    "modwt perfect reconstruction");
        const std::vector<double> var =
            modwt.waveletVariance(signal, modwt_levels);
        for (double v : var)
            require(v >= 0.0 && std::isfinite(v),
                    "modwt variance non-negative");
    }
    return 0;
}

int
runFrame(const std::uint8_t *data, std::size_t size)
{
    // A small payload cap keeps hostile length fields from turning
    // into fuzzer OOMs; the limit check itself is part of the
    // contract under test.
    constexpr std::uint32_t max_payload = 1u << 20;
    const char *bytes = reinterpret_cast<const char *>(data);
    std::string payload;
    std::size_t consumed = 0;
    std::string error;
    const serve::FrameStatus status = serve::decodeFrame(
        bytes, size, &payload, &consumed, max_payload, &error);
    switch (status) {
    case serve::FrameStatus::Ok: {
        require(consumed == serve::kFrameHeaderBytes + payload.size(),
                "frame consumed size");
        require(consumed <= size, "frame decoded past its input");
        // Accepted frames must round-trip through the encoder.
        const std::string again = serve::encodeFrame(payload);
        std::string payload2;
        std::size_t consumed2 = 0;
        require(serve::decodeFrame(again.data(), again.size(),
                                   &payload2, &consumed2,
                                   max_payload) ==
                    serve::FrameStatus::Ok,
                "frame encode/decode round trip");
        require(payload2 == payload, "frame payload round trip");
        // A decoded payload feeds the request parser, which must
        // reject anything invalid without throwing.
        serve::Request request;
        std::string parse_error;
        (void)serve::parseRequest(payload, &request, &parse_error);
        break;
    }
    case serve::FrameStatus::NeedMore:
        require(consumed == 0, "NeedMore must consume nothing");
        break;
    case serve::FrameStatus::Malformed:
        require(!error.empty(), "malformed frame without a message");
        break;
    case serve::FrameStatus::Oversized:
        require(!error.empty(), "oversized frame without a message");
        break;
    default:
        require(false, "decodeFrame returned an fd-only status");
    }
    return 0;
}

} // namespace fuzz
} // namespace didt
