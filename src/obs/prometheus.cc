#include "obs/prometheus.hh"

#include <cctype>
#include <sstream>

#include "util/json.hh"

namespace didt::obs
{

std::string
prometheusFamilyName(const std::string &name, MetricKind kind)
{
    std::string family = "didt_";
    family.reserve(family.size() + name.size() + 6);
    for (char c : name) {
        const bool legal = std::isalnum(static_cast<unsigned char>(c)) ||
                           c == '_' || c == ':';
        family.push_back(legal ? c : '_');
    }
    if (kind == MetricKind::Counter)
        family += "_total";
    return family;
}

namespace
{
void
renderSample(std::ostream &os, const std::string &family, double value)
{
    os << family << ' ' << jsonNumber(value) << '\n';
}
} // namespace

std::string
prometheusText(const MetricsSnapshot &snapshot)
{
    std::ostringstream os;
    // The run context as an info gauge: the facts ride in the labels.
    const RunContext &ctx = snapshot.context;
    os << "# TYPE didt_build_info gauge\n"
       << "didt_build_info{build_type=\"" << ctx.buildType
       << "\",simd_level=\"" << ctx.simdLevel << "\",failpoints=\""
       << (ctx.failpoints ? "true" : "false") << "\",jobs=\"" << ctx.jobs
       << "\",host_cpus=\"" << ctx.hostCpus << "\"} 1\n";
    for (const MetricSnapshot &metric : snapshot.metrics) {
        const std::string family =
            prometheusFamilyName(metric.name, metric.kind);
        switch (metric.kind) {
          case MetricKind::Counter:
            os << "# TYPE " << family << " counter\n";
            renderSample(os, family, metric.value);
            break;
          case MetricKind::Gauge:
            os << "# TYPE " << family << " gauge\n";
            renderSample(os, family, metric.value);
            os << "# TYPE " << family << "_max gauge\n";
            renderSample(os, family + "_max", metric.maxValue);
            break;
          case MetricKind::Histogram: {
            const HistogramSnapshot &h = metric.histogram;
            os << "# TYPE " << family << " histogram\n";
            std::uint64_t cumulative = 0;
            for (std::size_t i = 0; i < h.bounds.size(); ++i) {
                if (i < h.counts.size())
                    cumulative += h.counts[i];
                os << family << "_bucket{le=\""
                   << jsonNumber(h.bounds[i]) << "\"} " << cumulative
                   << '\n';
            }
            os << family << "_bucket{le=\"+Inf\"} " << h.count << '\n';
            renderSample(os, family + "_sum", h.sum);
            os << family << "_count " << h.count << '\n';
            break;
          }
        }
    }
    return os.str();
}

} // namespace didt::obs
