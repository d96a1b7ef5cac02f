/**
 * @file
 * RAII wall-time spans: one object per phase or work item.
 *
 * On destruction a ScopedTimer records its elapsed milliseconds into
 * an optional Histogram metric and, when trace collection is enabled,
 * emits a complete Chrome trace_event span into a TraceEventSink.
 * Timers nest naturally — an inner span's time range lies inside the
 * outer span's, which Perfetto renders as stacked slices — and the
 * nesting is recorded structurally: each traced span allocates a
 * process-unique id, parents itself under the thread's current
 * TraceContext, and installs itself as the parent for spans opened
 * while it is live (restored on destruction).
 *
 * Labels are std::string_view into a process-wide interned name
 * table, so constructing a span never allocates a per-span
 * std::string: callers pass literals or precomputed labels, and the
 * first traced use of a label copies it into the table once.
 *
 * When metrics are disabled and the sink is off, construction skips
 * the clock reads and the interning entirely, so dormant
 * instrumentation costs a couple of branches.
 */

#ifndef DIDT_OBS_SCOPED_TIMER_HH
#define DIDT_OBS_SCOPED_TIMER_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/metrics.hh"
#include "obs/trace_event.hh"

namespace didt::obs
{

/**
 * Copy @p label into the process-wide span-label table (first use
 * only) and return the stable interned string. Repeated calls with
 * the same text return the same object, so span creation can keep a
 * pointer instead of a per-span copy.
 */
const std::string &internSpanLabel(std::string_view label);

/** Times a scope; records on destruction. */
class ScopedTimer
{
  public:
    using Clock = std::chrono::steady_clock;

    /**
     * @param label slice name in the trace (may carry per-item detail,
     *        e.g. "cell gzip@1.50"; the histogram carries the
     *        aggregate). Interned on first traced use; need not
     *        outlive the constructor call.
     * @param histogram latency histogram the elapsed milliseconds are
     *        observed into; default-constructed skips metric recording
     * @param sink trace sink for the span (defaults to the global one)
     * @param category trace_event category
     */
    explicit ScopedTimer(std::string_view label,
                         Histogram histogram = {},
                         TraceEventSink *sink = nullptr,
                         const char *category = "didt");

    ~ScopedTimer();

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

    /** Milliseconds since construction (0 while dormant). */
    double elapsedMillis() const;

    /** The span's trace id (0 when the sink was off at construction). */
    std::uint64_t spanId() const { return spanId_; }

    /**
     * Attach one integer arg to the span (a lane count, say), written
     * under the trace event's "args". @p key must outlive the timer (a
     * literal). A later call replaces the earlier one.
     */
    void setArg(const char *key, long long value)
    {
        argKey_ = key;
        argValue_ = value;
    }

  private:
    const std::string *label_ = nullptr;
    const char *category_;
    Histogram histogram_;
    TraceEventSink *sink_;
    bool active_;
    Clock::time_point start_;
    std::uint64_t spanId_ = 0;
    std::uint64_t parentId_ = 0;
    const char *argKey_ = nullptr;
    long long argValue_ = 0;
};

} // namespace didt::obs

#endif // DIDT_OBS_SCOPED_TIMER_HH
