/**
 * @file
 * The serve workload: a warm didt_serve daemon under closed-loop load.
 *
 * The daemon runs at --jobs 2 with a 64 MiB trace-cache budget, above
 * the pool's working set of ten sampled traces (about 1 MB each). One
 * load-generating process holds two connections; each sends its next
 * request only after the reply to the last one arrived, as didt_client
 * does. Every request is a sampled single-benchmark, five-scale
 * characterization drawn by the workload seed from a fixed pool whose
 * traces all have the same length, so a request's work does not depend
 * on the draw. All requests share one batch key, but with two
 * closed-loop connections and one dispatcher running batches in turn,
 * only the other connection's request can queue while a batch runs, so
 * batches hold one request. After set-up no request simulates.
 *
 * Set-up (timed, three times, median reported): daemon start, first
 * pong, one warm-up request per pool benchmark. The harness's batch
 * reference results are computed once before that and not counted.
 */

#include <cerrno>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/experiment.hh"
#include "runner/executor.hh"
#include "runner/plan.hh"
#include "runner/result_json.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "util/json.hh"
#include "util/rng.hh"
#include "workload/profile.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace didt;

/** Benchmarks whose sampled traces are all 126,976 cycles long. */
const char *const kPool[] = {"applu", "apsi", "bzip2", "crafty",
                             "facerec", "fma3d", "gap", "mgrid",
                             "sixtrack", "vpr"};

constexpr std::size_t kDaemonJobs = 2;
constexpr std::size_t kConnections = 2;
constexpr std::size_t kSetups = 3;
constexpr std::size_t kMinRequests = 200;
constexpr const char *kCacheBytes = "67108864";

CampaignSpec
requestSpec(const std::string &benchmark)
{
    CampaignSpec spec;
    spec.profiles = {profileByName(benchmark)};
    spec.sampleDetail = 4096;
    spec.sampleSkip = 28672;
    return spec;
}

/** A didt_serve child process, stopped (SIGTERM drain) on destruction. */
class Daemon
{
  public:
    Daemon(const RunOptions &options, const std::string &socket,
           const std::string &metrics_out)
        : socket_(socket)
    {
        ::unlink(socket.c_str());
        const std::string log = options.outDir + "/serve.log";
        std::vector<std::string> args = {
            options.serveBinary, "--socket", socket, "--jobs",
            std::to_string(kDaemonJobs), "--cache-bytes", kCacheBytes};
        if (!metrics_out.empty()) {
            args.push_back("--metrics-out");
            args.push_back(metrics_out);
        }
        pid_ = ::fork();
        if (pid_ < 0)
            throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            // The daemon must not outlive the harness.
            ::prctl(PR_SET_PDEATHSIG, SIGTERM);
            const int fd = ::open(log.c_str(),
                                  O_WRONLY | O_CREAT | O_APPEND, 0644);
            if (fd >= 0) {
                ::dup2(fd, STDOUT_FILENO);
                ::dup2(fd, STDERR_FILENO);
            }
            std::vector<char *> argv;
            for (std::string &a : args)
                argv.push_back(a.data());
            argv.push_back(nullptr);
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
    }

    ~Daemon()
    {
        if (pid_ > 0)
            stop();
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    int pid() const { return pid_; }

    /** Connect @p client, retrying while the daemon starts. */
    void connect(serve::Client &client) const
    {
        std::string error;
        const Clock::time_point start = Clock::now();
        while (!client.connectUnix(socket_, &error)) {
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_)
                throw std::runtime_error("didt_serve exited at start-up");
            if (secondsSince(start) > 60.0)
                throw std::runtime_error("cannot connect: " + error);
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    }

    /** SIGTERM, wait; the exit status (0 after a clean drain). */
    int stop()
    {
        ::kill(pid_, SIGTERM);
        int status = 0;
        while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
        }
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
    }

  private:
    std::string socket_;
    int pid_ = -1;
};

/** Member @p key of @p object; throws when absent. */
const JsonValue &
member(const JsonValue *object, const char *key)
{
    const JsonValue *value = object ? object->find(key) : nullptr;
    if (!value)
        throw std::runtime_error(std::string("response lacks ") + key);
    return *value;
}

/** Send one request and return the parsed response. */
JsonValue
call(serve::Client &client, const std::string &request)
{
    std::string response;
    std::string error;
    if (!client.call(request, &response, &error))
        throw std::runtime_error("transport: " + error);
    return parseJson(response);
}

/** The serve workload's fixed inputs. */
struct ServeInputs
{
    std::vector<std::string> pool;
    /** Per pool benchmark: the batch result's cells, and their cycles. */
    std::vector<std::string> referenceCells;
    std::vector<double> referenceCycles;
    std::size_t cellsPerRequest = 0;
    /** Pool index of every request, in send order. */
    std::vector<std::size_t> sequence;
};

ServeInputs
makeInputs(const RunOptions &options)
{
    ServeInputs in;
    const std::size_t poolSize = options.tiny ? 2 : std::size(kPool);
    in.pool.assign(kPool, kPool + poolSize);
    // 22 requests per second of --seconds (about 0.8 s of serving per
    // second on a shared 4-vCPU AVX2 host); never fewer than 200, so ten
    // lie beyond the p95.
    const std::size_t requests =
        options.tiny ? 8
                     : std::max<std::size_t>(
                           kMinRequests,
                           static_cast<std::size_t>(options.seconds * 22.0));
    Rng rng(mixSeed(options.seed, 3));
    for (std::size_t i = 0; i < requests; ++i)
        in.sequence.push_back(rng.uniformInt(in.pool.size()));

    // Batch reference results, one per pool benchmark.
    const ExperimentSetup setup = makeStandardSetup();
    TraceRepository repo(setup);
    Executor executor(setup, repo, kDaemonJobs);
    for (const std::string &name : in.pool) {
        const CampaignResult result = executor.run(
            buildCampaignPlan(requestSpec(name)));
        const JsonValue doc = campaignToJson(result);
        in.referenceCells.push_back(doc.find("cells")->dump());
        double cycles = 0.0;
        for (const CampaignCell &cell : result.cells)
            cycles += static_cast<double>(cell.traceCycles);
        in.referenceCycles.push_back(cycles);
        in.cellsPerRequest = result.cells.size();
    }
    return in;
}

std::string
characterize(const ServeInputs &in, std::size_t pool_index,
             const std::string &id)
{
    return serve::characterizeRequestJson(
        id,
        campaignSpecToJson(requestSpec(in.pool[pool_index])),
        true);
}

/**
 * Start a daemon and warm it: first pong, then one request per pool
 * benchmark (trains, calibrates the five scales, simulates the pool).
 */
std::unique_ptr<Daemon>
startWarm(const RunOptions &options, const ServeInputs &in,
          const std::string &socket, const std::string &metrics_out,
          Report &report)
{
    auto daemon = std::make_unique<Daemon>(options, socket, metrics_out);
    serve::Client client;
    daemon->connect(client);
    const JsonValue pong = call(client, serve::pingRequestJson("ping"));
    if (member(&pong, "type").asString() != "pong")
        throw std::runtime_error("no pong from didt_serve");
    for (std::size_t i = 0; i < in.pool.size(); ++i) {
        const JsonValue r = call(client, characterize(in, i, "warm"));
        report.attempt();
        const JsonValue *result = r.find("result");
        const JsonValue *cells = result ? result->find("cells") : nullptr;
        if (!cells || cells->dump() != in.referenceCells[i])
            report.fail("serve warm-up " + in.pool[i] +
                        ": result differs from the batch reference");
    }
    return daemon;
}

/** One served request as the client saw it. */
struct Served
{
    std::size_t poolIndex = 0;
    double latencyMs = 0.0;
    Clock::time_point sent;
    std::string response;
    std::string error; ///< transport failure (the request failed)
};

/**
 * Drive the request sequence over kConnections closed-loop
 * connections; returns the wall of the whole pass. Responses are
 * checked afterwards, outside the timed loop. A transport failure
 * fails that request and the connection's unsent ones.
 */
double
drive(const Daemon &daemon, const ServeInputs &in, const char *pass,
      std::vector<Served> &served)
{
    served.assign(in.sequence.size(), Served{});
    std::vector<serve::Client> clients(kConnections);
    for (serve::Client &c : clients)
        daemon.connect(c);
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kConnections; ++c) {
        threads.emplace_back([&, c] {
            std::string lost;
            for (std::size_t i = c; i < in.sequence.size();
                 i += kConnections) {
                Served &s = served[i];
                s.poolIndex = in.sequence[i];
                if (!lost.empty()) {
                    s.error = "not sent: " + lost;
                    continue;
                }
                const std::string request = characterize(
                    in, s.poolIndex,
                    std::string(pass) + "-" + std::to_string(i));
                s.sent = Clock::now();
                if (!clients[c].call(request, &s.response, &s.error))
                    lost = s.error;
                s.latencyMs = secondsSince(s.sent) * 1000.0;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    return secondsSince(start);
}

/** Phase times a response's "timings" echo reports, in ms. */
struct Echo
{
    bool ok = false; ///< the request succeeded and matched its reference
    double queue = 0.0, merge = 0.0, execute = 0.0, serialize = 0.0;
    double lookups = 0.0, memoryHits = 0.0;
};

/** Check every response against its batch reference; one echo per
 *  request, in send order. */
std::vector<Echo>
checkServed(const ServeInputs &in, const std::vector<Served> &served,
            Report &report)
{
    std::vector<Echo> echoes(served.size());
    for (std::size_t i = 0; i < served.size(); ++i) {
        const Served &s = served[i];
        report.attempt();
        if (!s.error.empty()) {
            report.fail("served request: " + s.error);
            continue;
        }
        try {
            const JsonValue r = parseJson(s.response);
            if (const JsonValue *err = r.find("error")) {
                report.fail("served request: " + err->dump());
                continue;
            }
            if (member(&member(&r, "result"), "cells").dump() !=
                in.referenceCells[s.poolIndex]) {
                report.fail("served " + in.pool[s.poolIndex] +
                            ": cells differ from the batch reference");
                continue;
            }
            const JsonValue &t = member(&r, "timings");
            Echo &e = echoes[i];
            e.queue = member(&t, "queue_ms").asNumber();
            e.merge = member(&t, "merge_ms").asNumber();
            e.execute = member(&t, "execute_ms").asNumber();
            e.serialize = member(&t, "serialize_ms").asNumber();
            const JsonValue &cache = member(&t, "cache");
            e.lookups = member(&cache, "lookups").asNumber();
            e.memoryHits = member(&cache, "memory_hits").asNumber();
            e.ok = true;
        } catch (const std::exception &ex) {
            report.fail(std::string("served response: ") + ex.what());
        }
    }
    return echoes;
}

double
statsCounter(const Daemon &daemon, const char *name)
{
    serve::Client client;
    daemon.connect(client);
    const JsonValue r = call(client, serve::statsRequestJson("stats"));
    return member(&member(&r, "stats"), name).asNumber();
}

void
stopChecked(std::unique_ptr<Daemon> &daemon, Report &report)
{
    report.attempt();
    if (const int status = daemon->stop(); status != 0)
        report.fail("didt_serve exited " + std::to_string(status) +
                    " after SIGTERM");
    daemon.reset();
}

} // namespace

void
runServe(const RunOptions &options, Report &report)
{
    report.context("jobs", std::to_string(kDaemonJobs));
    report.context("connections", std::to_string(kConnections));
    const ServeInputs in = makeInputs(options);
    report.context("requests", std::to_string(in.sequence.size()));
    // Relative to the working directory the daemon shares: a Unix
    // socket path must stay under 108 bytes however deep the checkout.
    const std::string socket =
        (std::filesystem::relative(options.outDir) /
         ("serve-" + std::to_string(::getpid()) + ".sock"))
            .string();
    const std::string metricsOut = options.outDir + "/serve.metrics.json";

    EndToEnd e2e;
    std::unique_ptr<Daemon> daemon;
    const std::size_t setups = options.trace ? 1 : kSetups;
    for (std::size_t i = 0; i < setups; ++i) {
        if (daemon)
            stopChecked(daemon, report);
        const Clock::time_point start = Clock::now();
        daemon = startWarm(options, in, socket,
                           options.trace ? metricsOut : "", report);
        e2e.setupSeconds.push_back(secondsSince(start));
    }

    std::vector<Served> served;
    const double characterizationsBefore =
        statsCounter(*daemon, "characterizations");
    const double batchesBefore = statsCounter(*daemon, "batches");
    const double wall = drive(*daemon, in, "req", served);
    const double batches = statsCounter(*daemon, "batches") - batchesBefore;
    const double requests =
        statsCounter(*daemon, "characterizations") - characterizationsBefore;
    const double daemonRss = peakRssMb(daemon->pid());
    checkServed(in, served, report);

    if (!options.trace) {
        stopChecked(daemon, report);
        EndToEnd::Round pass{wall, 0.0, 0.0};
        for (const Served &s : served) {
            pass.cells += static_cast<double>(in.cellsPerRequest);
            pass.cycles += in.referenceCycles[s.poolIndex];
            e2e.requestMs.push_back(s.latencyMs);
        }
        e2e.rounds.push_back(pass);
        e2e.peakRssMb = daemonRss;
        emitEndToEnd(report, e2e);
        return;
    }

    // Traced pass over the same sequence: a span per request, with the
    // daemon's echoed phases as children laid end to end from the send
    // (the echo carries durations, not timestamps). A request's self
    // time is the client's share: framing, socket and parsing.
    Tracer tracer(true);
    std::vector<Served> tracedServed;
    const double tracedWall = drive(*daemon, in, "traced", tracedServed);
    const std::vector<Echo> echoes = checkServed(in, tracedServed, report);
    stopChecked(daemon, report);

    LayerValues layers;
    double sum[4] = {0, 0, 0, 0};
    double overhead = 0.0, lookups = 0.0, hits = 0.0;
    double n = 0.0;
    for (std::size_t i = 0; i < tracedServed.size(); ++i) {
        const Served &s = tracedServed[i];
        const Echo &e = echoes[i];
        if (!e.ok)
            continue;
        n += 1.0;
        const std::string id = "traced-" + std::to_string(i);
        const double phases[4] = {e.queue, e.merge, e.execute, e.serialize};
        const char *names[4] = {"serve.queue", "serve.merge",
                                "serve.execute", "serve.serialize"};
        auto ms = [](double v) {
            return std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::milli>(v));
        };
        const std::uint64_t request = tracer.record(
            "serve.request", id, 0, s.sent, s.sent + ms(s.latencyMs));
        Clock::time_point at = s.sent;
        for (int k = 0; k < 4; ++k) {
            const Clock::time_point end = at + ms(phases[k]);
            tracer.record(names[k], id, request, at, end);
            at = end;
            sum[k] += phases[k];
        }
        overhead += s.latencyMs - (e.queue + e.merge + e.execute + e.serialize);
        lookups += e.lookups;
        hits += e.memoryHits;
    }
    if (n == 0.0)
        throw std::runtime_error("no served request succeeded");
    layers["serve.queue_ms_mean"] = sum[0] / n;
    layers["serve.merge_ms_mean"] = sum[1] / n;
    layers["serve.execute_ms_mean"] = sum[2] / n;
    layers["serve.serialize_ms_mean"] = sum[3] / n;
    layers["serve.client_overhead_ms_mean"] = overhead / n;
    layers["serve.batch_size_mean"] = batches > 0 ? requests / batches : 0.0;
    if (lookups > 0)
        layers["runner.repo_hit_ratio"] = hits / lookups;
    layers["obs.trace_overhead_pct"] = 100.0 * (tracedWall - wall) / wall;
    double busyMs = 0.0;
    for (const Served &s : tracedServed)
        busyMs += s.latencyMs;
    layers["obs.span_coverage_pct"] =
        100.0 * busyMs / 1000.0 /
        (static_cast<double>(kConnections) * tracedWall);

    // The daemon's own registry, written at drain: calibration happened
    // during set-up.
    const JsonValue metrics = readJsonFile(metricsOut);
    for (const JsonValue &m : metrics.find("metrics")->items()) {
        const std::string &name = m.find("name")->asString();
        if (name == "campaign.calibrate_ms")
            layers["runner.calibrate_s"] = m.find("sum")->asNumber() / 1000.0;
        else if (name == "repo.wait_ms")
            layers["runner.repo_wait_s"] = m.find("sum")->asNumber() / 1000.0;
    }
    tracer.writeChromeTrace(options.outDir + "/serve.trace.json");
    emitLayers(report, layers);
}

} // namespace perfbench
