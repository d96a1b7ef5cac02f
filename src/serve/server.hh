/**
 * @file
 * The didt_serve daemon core: characterization as a service.
 *
 * A Server owns one long-lived Executor (shared worker pool, shared
 * calibrated-model cache) and one long-lived TraceRepository (the
 * shared cross-request cache tier: byte-budgeted in-memory LRU plus
 * the optional disk tier), accepts didt-serve-v1 requests over Unix
 * and/or TCP stream sockets, and evaluates them through the same
 * plan/execute path as batch didt_campaign — so a served result is
 * byte-identical to a batch result for the same spec.
 *
 * Threading model:
 *  - an acceptor thread polls the listening sockets (plus a self-pipe
 *    for wakeups) and spawns one thread per connection;
 *  - connection threads read frames, answer ping/stats inline, and
 *    enqueue characterize requests on the bounded admission queue,
 *    blocking until the response is ready (each connection runs its
 *    requests in order and is the sole writer of its socket);
 *  - a dispatcher thread pops the queue, merges every batchable
 *    request it can see into one campaign (serve/batch.hh), runs it on
 *    the executor, and fulfills each request with its sliced result.
 *
 * Admission control: the queue is bounded by maxQueue; a request that
 * arrives when it is full is rejected immediately with the typed
 * queue_full error — backpressure is explicit, never an OOM or an
 * unbounded latency tail.
 *
 * Shutdown: requestStop() begins a graceful drain — listeners close,
 * idle connections are shut down, requests already admitted run to
 * completion and their responses are written, new requests are
 * rejected with shutting_down. wait() returns once everything is
 * joined; the process can then exit 0.
 *
 * Fault injection: the serve.accept / serve.read / serve.write /
 * serve.decode failpoints turn socket-layer faults into dropped
 * connections or per-request error responses; no failpoint crashes
 * the daemon.
 */

#ifndef DIDT_SERVE_SERVER_HH
#define DIDT_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hh"
#include "obs/event_log.hh"
#include "obs/metrics.hh"
#include "obs/trace_event.hh"
#include "runner/executor.hh"
#include "runner/trace_repository.hh"
#include "serve/frame.hh"
#include "serve/protocol.hh"
#include "util/json.hh"

namespace didt
{
namespace serve
{

/** Everything configurable about one daemon instance. */
struct ServerConfig
{
    /** Unix-domain socket path; empty disables the Unix listener. */
    std::string unixPath;

    /** TCP port; -1 disables the TCP listener, 0 binds ephemeral
     *  (read the bound port back with Server::tcpPort()). */
    int tcpPort = -1;

    /** TCP bind address. */
    std::string tcpHost = "127.0.0.1";

    /** Admission-queue capacity; a characterize request arriving when
     *  this many are queued is rejected with queue_full. */
    std::size_t maxQueue = 64;

    /** Trace-cache memory budget in bytes (0 = unlimited). */
    std::uint64_t cacheBytes = 0;

    /** Trace-cache directory ("" = no disk tier). */
    std::string cacheDir;

    /** Executor worker threads (0 = hardware concurrency). */
    std::size_t jobs = 0;

    /** Frame payload size limit. */
    std::uint32_t maxFrameBytes = kDefaultMaxFrameBytes;

    /** When non-empty, a metrics JSON snapshot (didt-metrics-v1) is
     *  rewritten here every metricsIntervalMs and once on shutdown —
     *  live telemetry for an operator to watch. */
    std::string metricsOut;

    /** Telemetry rewrite period in milliseconds. */
    double metricsIntervalMs = 1000.0;

    /** Event-ring capacity: the newest this many daemon events are
     *  retained for `events` queries and the shutdown dump. */
    std::size_t eventCapacity = 1024;
};

/** The daemon: listeners + admission queue + dispatcher + executor. */
class Server
{
  public:
    Server(const ExperimentSetup &setup, ServerConfig config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind the configured listeners and start the service threads.
     * False (with @p error set) when a socket cannot be bound; the
     * server is then inert and only needs destruction.
     */
    bool start(std::string *error);

    /** Begin a graceful drain (idempotent; callable from any thread,
     *  but not from a signal handler — signal handlers should set a
     *  flag and let the main loop call this). */
    void requestStop();

    /** Block until the drain completes and every thread is joined. */
    void wait();

    /** The TCP port actually bound (after start; -1 without TCP). */
    int tcpPort() const { return boundTcpPort_; }

    /** The shared execution engine. */
    Executor &executor() { return *executor_; }

    /** The shared trace repository. */
    TraceRepository &repository() { return repo_; }

    /** Daemon counters as the "stats" response payload. */
    JsonValue statsJson() const;

    /** The process's metrics, with the executor's jobs in the run
     *  context. */
    obs::MetricsSnapshot metricsSnapshot() const;

    /** The bounded daemon-event ring (admissions, batches, faults). */
    const obs::EventLog &events() const { return events_; }

  private:
    using Clock = std::chrono::steady_clock;

    /** One admitted characterize request awaiting execution. */
    struct Job
    {
        std::string id;
        CampaignSpec spec;
        std::string key; ///< batchKey(spec)
        std::promise<std::string> response;
        Clock::time_point admitted;  ///< queue-wait start
        bool wantTimings = false;    ///< echo a "timings" breakdown
        obs::TraceContext ctx;       ///< request span / id for nesting
    };

    /** One live client connection. */
    struct Connection
    {
        int fd = -1;
        std::thread thread;
        std::atomic<bool> done{false};
    };

    void acceptorLoop();
    void connectionLoop(Connection *conn);
    void dispatcherLoop();
    void metricsLoop();

    /** Run one merged batch and fulfill every member's promise. */
    void runBatch(std::vector<Job> batch);

    /**
     * Admit a characterize request, block until served, and return the
     * response payload (a result or a typed error; never throws).
     */
    std::string serveCharacterize(const Request &request);

    /**
     * Serve a watch subscription on @p fd: send one live-stats frame
     * per tick until the frame budget is spent, the peer sends another
     * frame (left unread for the connection loop — that request
     * unsubscribes and is answered normally), the peer hangs up, or
     * the daemon drains. False when the connection is dead.
     */
    bool streamWatch(int fd, const Request &request);

    /** The per-tick "stats" object of a watch frame. */
    JsonValue watchStatsJson(double elapsedMs,
                             const obs::MetricsSnapshot &current,
                             const obs::MetricsSnapshot &delta,
                             const TraceCacheStats &cacheDelta) const;

    /** Reap joined connection threads; under connMutex_. */
    void reapConnectionsLocked();

    const ServerConfig config_;
    TraceRepository repo_;
    std::unique_ptr<Executor> executor_;

    int unixFd_ = -1;
    int tcpFd_ = -1;
    int boundTcpPort_ = -1;
    int wakePipe_[2] = {-1, -1};

    std::thread acceptor_;
    std::thread dispatcher_;
    std::thread metricsThread_;

    mutable std::mutex queueMutex_;
    std::condition_variable queueCv_;
    std::deque<Job> queue_;
    bool draining_ = false;
    /** Mirrors draining_ for lock-free polls (watch ticks). */
    std::atomic<bool> drainingFlag_{false};

    std::mutex connMutex_;
    std::list<Connection> connections_;

    std::mutex stopMutex_;
    std::condition_variable stopCv_;
    bool stopRequested_ = false;

    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> characterizations_{0};
    std::atomic<std::uint64_t> rejectedQueueFull_{0};
    std::atomic<std::uint64_t> rejectedDraining_{0};
    std::atomic<std::uint64_t> badRequests_{0};
    std::atomic<std::uint64_t> batches_{0};
    std::atomic<std::uint64_t> connectionsAccepted_{0};
    std::atomic<std::uint64_t> droppedConnections_{0};
    std::atomic<std::uint64_t> activeConnections_{0};
    std::atomic<std::uint64_t> watchers_{0};

    obs::EventLog events_;

    bool started_ = false;
};

} // namespace serve
} // namespace didt

#endif // DIDT_SERVE_SERVER_HH
