/**
 * @file
 * Shared pieces of the perfbench harness: run options, the result
 * report (metrics plus attempted/failed operation counts), the span
 * tracer of traced runs, and host probes (peak RSS, CPU steal).
 *
 * The harness measures the characterizer from outside: it calls the
 * libraries' public functions and the didt_serve daemon, records its
 * own spans around those calls and reads the spans and metrics the
 * program already records. It adds nothing to the program.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hh"
#include "obs/scoped_timer.hh"
#include "obs/trace_event.hh"
#include "util/rng.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** One benchmark invocation, as parsed from the command line. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** Smoke-test size: a small grid per workload (tests only). */
    bool tiny = false;
    /** Directory for result documents, logs and Chrome traces. */
    std::string outDir = ".bench_build/perfbench";
    /** The didt_serve binary (serve workload). */
    std::string serveBinary = ".bench_build/tools/didt_serve";
};

/**
 * splitmix64 finalizer: derives the program-facing seeds (spec seeds,
 * Monte Carlo seeds, request-pool draws) from the workload seed.
 */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream);

/**
 * Shuffle @p items in place (Fisher-Yates) with a generator seeded by
 * @p seed: the same seed gives the same order.
 */
template <class T>
void
permute(std::vector<T> &items, std::uint64_t seed)
{
    didt::Rng rng(seed);
    for (std::size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[rng.uniformInt(i)]);
}

/**
 * Number of fixed-size rounds a workload runs for a measurement of
 * @p seconds, given the host seconds one round takes on the reference
 * host. The count depends only on the arguments, so every run of one
 * setting does the same work and reports the same digests.
 */
std::size_t roundsFor(double seconds, double round_seconds);

/** Quantile @p q of @p values by linear interpolation (type 7). */
double quantile(std::vector<double> values, double q);

/** Median of @p values. */
double median(std::vector<double> values);

/** 64-bit FNV-1a digest of @p bytes as 16 hex digits. */
std::string digest(const std::string &bytes);

/**
 * Return the heap's freed pages to the system, so the peak resident
 * set of a run is the largest single round's, not what allocator
 * fragmentation accumulated across rounds.
 */
void releaseFreedMemory();

/** Peak resident set (VmHWM) of process @p pid in MB; 0 = self. */
double peakRssMb(int pid = 0);

/** Cumulative CPU jiffies from /proc/stat (all CPUs). */
struct CpuTicks
{
    std::uint64_t total = 0;
    std::uint64_t steal = 0;

    static CpuTicks now();
};

/**
 * While alive, confines every thread of this process to a window of
 * @p width allowed CPUs that moves on by one CPU every 100 ms, and
 * restores the original affinity at the end. On a shared host whose
 * vCPUs run at different speeds for tens of seconds at a time, a run
 * otherwise measures whichever vCPUs the scheduler happened to pick;
 * rotating samples them all. @p width is the number of busy threads of
 * the workload.
 */
class CpuRotation
{
  public:
    explicit CpuRotation(std::size_t width);
    ~CpuRotation();
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

  private:
    void loop();
    void pin(const std::vector<int> &cpus) const;

    std::size_t width_;
    std::vector<int> cpus_;
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stop_ = false;
    std::thread thread_;
};

/** Steal share of CPU time between two samples, in percent. */
double stealPercent(const CpuTicks &before, const CpuTicks &after);

/**
 * What one run reports: named metrics, the operations it attempted,
 * and how many of them failed (a failed operation is an error result
 * or an output that did not match its check). Failures are counted
 * and logged, never fatal.
 */
class Report
{
  public:
    /** Count @p n attempted operations. */
    void attempt(std::uint64_t n = 1) { attempted_ += n; }

    /** Count one failed operation and log why to stderr. */
    void fail(const std::string &what);

    /** Record metric @p name (a later value replaces an earlier one). */
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** The single-line result object the benchmark prints last. */
    std::string json() const;

    /** Record a context member (printed on its own line). */
    void context(const std::string &key, const std::string &json_value);

    /** The single-line context object. */
    std::string contextJson() const;

    /** Record a digest line (workload output identity). */
    void note(const std::string &line);

    const std::vector<std::string> &notes() const { return notes_; }

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<Metric> metrics_;
    std::vector<std::pair<std::string, std::string>> context_;
    std::vector<std::string> notes_;
};

/**
 * Spans of a traced run, kept in the program's own trace sink
 * (obs::TraceEventSink::global()), so the spans the harness records
 * around public calls and the ones the program records itself (the
 * executor's training, calibration and cell spans, profileTrace,
 * simulation, co-simulation) land in one tree. A span has a name,
 * start, end, parent and a request/cell id shared by the spans of one
 * operation. Spans are kept in memory and written as a Chrome trace at
 * the end. An enabled tracer clears the sink and turns it on for its
 * lifetime; a disabled one leaves it off and every call is a no-op, so
 * untraced runs share the code path.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled);
    ~Tracer();
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool enabled() const { return enabled_; }

    /** RAII span; parents under the calling thread's open span unless
     *  @p parent is given (pool workers pass their cell's parent). */
    class Span
    {
      public:
        Span(Tracer &tracer, const char *name, std::string request = {},
             std::uint64_t parent = kCurrent);
        ~Span() { end(); }
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

        /** This span's id (0 when tracing is off). */
        std::uint64_t id() const { return id_; }

        /** End the span now instead of at scope exit. */
        void end();

        static constexpr std::uint64_t kCurrent = ~std::uint64_t{0};

      private:
        std::optional<didt::obs::ScopedTraceContext> context_;
        std::optional<didt::obs::ScopedTimer> timer_;
        std::uint64_t id_ = 0;
    };

    /** Record a finished span with explicit times; returns its id. */
    std::uint64_t record(const char *name, std::string request,
                         std::uint64_t parent, Clock::time_point start,
                         Clock::time_point end);

    /** Total duration, in seconds, of every span named @p name. */
    double total(const std::string &name) const;

    /** Total duration, in seconds, of every span whose name starts
     *  with @p prefix. */
    double totalWithPrefix(const std::string &prefix) const;

    /** Write every span as a Chrome trace (about:tracing, Perfetto). */
    void writeChromeTrace(const std::string &path) const;

  private:
    bool enabled_;
};

/** A metrics-registry snapshot taken now. */
didt::obs::MetricsSnapshot registrySnapshot();

/** Counter value of @p name in @p snap (0 when absent). */
double counterValue(const didt::obs::MetricsSnapshot &snap,
                    const std::string &name);

/** Histogram sum of @p name in @p snap (0 when absent). Quantiles are
 *  never read: they are not clamped to the observed range. */
double histogramSum(const didt::obs::MetricsSnapshot &snap,
                    const std::string &name);

/** Create @p dir and its parents. */
void makeDirs(const std::string &dir);

/** Write @p bytes to @p path (throws on I/O failure). */
void writeFile(const std::string &path, const std::string &bytes);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
