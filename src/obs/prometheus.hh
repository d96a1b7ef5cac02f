/**
 * @file
 * Prometheus text exposition rendering for metrics snapshots.
 *
 * Maps the registry's dotted metric names ("serve.requests") onto
 * Prometheus families ("didt_serve_requests_total"): a "didt_" prefix,
 * dots and other illegal characters replaced by underscores, counters
 * suffixed "_total". Histograms render in the standard cumulative
 * form: one "_bucket" sample per upper edge with an `le` label, an
 * "le=\"+Inf\"" bucket equal to "_count", plus "_sum" and "_count".
 * Gauges additionally expose their high-water mark as a second
 * "<family>_max" gauge. The snapshot's run context leads as the info
 * gauge "didt_build_info" (value 1, the facts in its labels).
 *
 * Output is deterministic for a given snapshot (families in snapshot
 * order, i.e. sorted by source name; numbers via jsonNumber), so the
 * daemon's `stats --prom` endpoint can be golden-tested and scraped.
 */

#ifndef DIDT_OBS_PROMETHEUS_HH
#define DIDT_OBS_PROMETHEUS_HH

#include <string>

#include "obs/metrics.hh"

namespace didt::obs
{

/**
 * The Prometheus family name for a registry metric: "didt_" prefix,
 * illegal characters mapped to '_', counters suffixed "_total".
 */
std::string prometheusFamilyName(const std::string &name,
                                 MetricKind kind);

/** Render @p snapshot in Prometheus text exposition format. */
std::string prometheusText(const MetricsSnapshot &snapshot);

} // namespace didt::obs

#endif // DIDT_OBS_PROMETHEUS_HH
