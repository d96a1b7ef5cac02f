#include "harness.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <malloc.h>
#include <sched.h>
#include <sstream>
#include <stdexcept>

#include "util/json.hh"

namespace perfbench
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::size_t
roundsFor(double seconds, double round_seconds)
{
    const double rounds = std::floor(seconds / round_seconds + 0.5);
    return rounds < 1.0 ? 1 : static_cast<std::size_t>(rounds);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

std::string
digest(const std::string &bytes)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

void
releaseFreedMemory()
{
    ::malloc_trim(0);
}

double
peakRssMb(int pid)
{
    const std::string path = pid == 0
                                 ? "/proc/self/status"
                                 : "/proc/" + std::to_string(pid) +
                                       "/status";
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kb = 0.0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

CpuTicks
CpuTicks::now()
{
    CpuTicks ticks;
    std::ifstream in("/proc/stat");
    std::string label;
    in >> label;
    if (label != "cpu")
        return ticks;
    // user nice system idle iowait irq softirq steal (guest time is
    // already counted in user and nice).
    for (int i = 0; i < 8; ++i) {
        std::uint64_t v = 0;
        if (!(in >> v))
            break;
        ticks.total += v;
        if (i == 7)
            ticks.steal = v;
    }
    return ticks;
}

double
stealPercent(const CpuTicks &before, const CpuTicks &after)
{
    if (after.total <= before.total)
        return 0.0;
    return 100.0 * static_cast<double>(after.steal - before.steal) /
           static_cast<double>(after.total - before.total);
}

CpuRotation::CpuRotation(std::size_t width) : width_(width)
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof(allowed), &allowed) == 0)
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &allowed))
                cpus_.push_back(cpu);
    if (cpus_.size() > width_)
        thread_ = std::thread([this] { loop(); });
}

CpuRotation::~CpuRotation()
{
    if (!thread_.joinable())
        return;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_one();
    thread_.join();
    pin(cpus_);
}

void
CpuRotation::pin(const std::vector<int> &cpus) const
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int cpu : cpus)
        CPU_SET(cpu, &set);
    // Threads come and go; one that exits between the listing and the
    // call just fails the call.
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
        const pid_t tid =
            static_cast<pid_t>(std::stol(entry.path().filename().string()));
        ::sched_setaffinity(tid, sizeof(set), &set);
    }
}

void
CpuRotation::loop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (std::size_t k = 0; !stop_; k = (k + 1) % cpus_.size()) {
        std::vector<int> window;
        for (std::size_t i = 0; i < width_; ++i)
            window.push_back(cpus_[(k + i) % cpus_.size()]);
        pin(window);
        wake_.wait_for(lock, std::chrono::milliseconds(100),
                       [this] { return stop_; });
    }
}

void
Report::fail(const std::string &what)
{
    ++failed_;
    std::cerr << "perfbench: failed operation: " << what << "\n";
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    if (!std::isfinite(value))
        throw std::runtime_error("metric " + name + " is not finite");
    for (Metric &m : metrics_) {
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    metrics_.push_back({name, value, unit});
}

std::string
Report::json() const
{
    std::string out = "{\"correct\": ";
    out += failed_ == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        if (i)
            out += ", ";
        out += "\"" + didt::jsonEscape(m.name) + "\": {\"value\": " +
               didt::jsonNumber(m.value) + ", \"unit\": \"" +
               didt::jsonEscape(m.unit) + "\"}";
    }
    out += "}}";
    return out;
}

void
Report::context(const std::string &key, const std::string &json_value)
{
    context_.emplace_back(key, json_value);
}

std::string
Report::contextJson() const
{
    std::string out = "{\"context\": {";
    for (std::size_t i = 0; i < context_.size(); ++i) {
        if (i)
            out += ", ";
        out += "\"" + didt::jsonEscape(context_[i].first) +
               "\": " + context_[i].second;
    }
    out += "}}";
    return out;
}

void
Report::note(const std::string &line)
{
    notes_.push_back(line);
}

Tracer::Tracer(bool enabled) : enabled_(enabled)
{
    if (!enabled_)
        return;
    didt::obs::TraceEventSink &sink = didt::obs::TraceEventSink::global();
    sink.clear();
    sink.setEnabled(true);
}

Tracer::~Tracer()
{
    if (enabled_)
        didt::obs::TraceEventSink::global().setEnabled(false);
}

Tracer::Span::Span(Tracer &tracer, const char *name, std::string request,
                   std::uint64_t parent)
{
    if (!tracer.enabled())
        return;
    if (parent != kCurrent || !request.empty()) {
        didt::obs::TraceContext context = didt::obs::currentTraceContext();
        if (parent != kCurrent)
            context.parentSpan = parent;
        if (!request.empty())
            context.requestId = std::move(request);
        context_.emplace(std::move(context));
    }
    timer_.emplace(name, didt::obs::Histogram{}, nullptr, "perfbench");
    id_ = timer_->spanId();
}

void
Tracer::Span::end()
{
    // The timer restores the thread's parent span, then the context
    // its request label.
    timer_.reset();
    context_.reset();
}

std::uint64_t
Tracer::record(const char *name, std::string request, std::uint64_t parent,
               Clock::time_point start, Clock::time_point end)
{
    if (!enabled_)
        return 0;
    const std::uint64_t id = didt::obs::newSpanId();
    didt::obs::TraceEventSink::global().record(
        name, "perfbench", start, end, id, parent, std::move(request), "");
    return id;
}

double
Tracer::total(const std::string &name) const
{
    double us = 0.0;
    for (const didt::obs::TraceEvent &e :
         didt::obs::TraceEventSink::global().events())
        if (e.name == name)
            us += e.durationUs;
    return us / 1e6;
}

double
Tracer::totalWithPrefix(const std::string &prefix) const
{
    double us = 0.0;
    for (const didt::obs::TraceEvent &e :
         didt::obs::TraceEventSink::global().events())
        if (e.name.rfind(prefix, 0) == 0)
            us += e.durationUs;
    return us / 1e6;
}

void
Tracer::writeChromeTrace(const std::string &path) const
{
    didt::obs::TraceEventSink::global().writeChromeTrace(path);
}

didt::obs::MetricsSnapshot
registrySnapshot()
{
    return didt::obs::MetricsRegistry::global().snapshot();
}

double
counterValue(const didt::obs::MetricsSnapshot &snap,
             const std::string &name)
{
    const didt::obs::MetricSnapshot *m = snap.find(name);
    return m ? m->value : 0.0;
}

double
histogramSum(const didt::obs::MetricsSnapshot &snap,
             const std::string &name)
{
    const didt::obs::MetricSnapshot *m = snap.find(name);
    return m ? m->histogram.sum : 0.0;
}

void
makeDirs(const std::string &dir)
{
    std::filesystem::create_directories(dir);
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
    out.close();
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

} // namespace perfbench
