/**
 * @file
 * StreamServer: the long-lived inference daemon core (ROADMAP item 2).
 *
 * One server owns one model and N sessions. Two internal threads:
 *
 *   - the *batcher* gathers ready volleys round-robin across sessions
 *     (per-session FIFO preserved), applies per-volley deadlines,
 *     optionally perturbs them through the chaos FaultInjector, and
 *     runs the model batch on the shared ThreadPool; results are
 *     demultiplexed back to each session's egress ring in seq order.
 *     It is work-driven: it gathers again at once after a full batch
 *     and sleeps, with no timeout, only when every ingress ring is
 *     empty. A model exception poisons a volley, not the daemon: a
 *     transactional (stateless) model's batch is retried item-by-item
 *     so only the poisoned volley is dropped (accounted as
 *     `drop <seq> poisoned`); a stateful model is fed one item per
 *     call in the first place, so a throw can never re-apply items
 *     committed before it.
 *   - the *housekeeper* ticks every 20 ms: the watchdog (a batch in
 *     flight past watchdogStallMs flips readiness to false and ticks
 *     serve.watchdog.stalls), the signal flags and SIGHUP reload,
 *     admission decay, idle reaping and the drain deadline. The
 *     batcher cannot watch for its own stall, so two is the minimum.
 *
 * Graceful drain: requestStop() (the SIGTERM/SIGINT path) stops
 * admitting, lets in-flight volleys finish and emits every session's
 * end line; the housekeeper stops the threads once every session is
 * gone or, at drainDeadlineMs, after force-closing the stragglers
 * (counted in serve.drain.forced) and one second of grace.
 *
 * Health/readiness is a JSON snapshot combining server state with the
 * full obs metrics registry — the `health` wire command and the
 * daemon's --health flag both serve it.
 */

#ifndef ST_SERVE_SERVER_HPP
#define ST_SERVE_SERVER_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "serve/admission.hpp"
#include "serve/config.hpp"
#include "serve/latency.hpp"
#include "serve/model.hpp"
#include "serve/registry.hpp"
#include "serve/session.hpp"

namespace st::serve {

/** Milliseconds on the steady clock (the serving layer's time base). */
uint64_t steadyNowMs();

/** The streaming inference engine. */
class StreamServer
{
  public:
    StreamServer(std::unique_ptr<ServeModel> model, ServeConfig config);

    /**
     * Boot with an explicit model identity (an STMF-loaded model's
     * ModelInfo) so health reports the real id/version/checksum from
     * the first request instead of the "builtin" placeholder.
     */
    StreamServer(std::shared_ptr<ServeModel> model,
                 model::ModelInfo info, ServeConfig config);

    ~StreamServer();

    StreamServer(const StreamServer &) = delete;
    StreamServer &operator=(const StreamServer &) = delete;

    const ServeConfig &config() const { return config_; }

    /**
     * The currently published model. The reference stays valid until
     * the next successful swapModel(); batch processing never uses
     * this accessor — the batcher pins a version per batch instead.
     */
    ServeModel &model() { return *registry_.current()->model; }

    /** The hot-swap model registry (version pinning, swap counters). */
    ModelRegistry &registry() { return registry_; }

    /**
     * Canary + publish @p candidate as the next model version (see
     * ModelRegistry::swap). In-flight batches finish on the version
     * they pinned; new batches — and new sessions' width negotiation —
     * see the new one. A failed canary leaves the incumbent serving.
     */
    Status swapModel(std::shared_ptr<ServeModel> candidate,
                     model::ModelInfo info)
    {
        return registry_.swap(std::move(candidate), std::move(info));
    }

    /**
     * Install the reload procedure (rescan a model dir, load, swap)
     * invoked by SIGHUP and the `reload` wire command. The handler
     * runs on the housekeeping thread or a transport thread — never
     * the batcher — and must be internally synchronized.
     */
    void setReloadHandler(std::function<Status()> handler);

    /** Run the installed reload handler (FailedPrecondition if none). */
    Status triggerReload();

    /** Start the batcher and housekeeping threads. Idempotent. */
    void start();

    /**
     * Admit a new session for @p client_key, or shed it. On refusal
     * the result's session is null and retryAfterMs/reason explain
     * the shed (the transport turns them into a `busy` line).
     */
    struct OpenResult
    {
        std::shared_ptr<Session> session;
        uint64_t retryAfterMs = 0;
        const char *reason = "";
    };
    OpenResult openSession(const std::string &client_key);

    /** Sessions currently open (admitted, not yet finished). */
    size_t activeSessions() const;

    /**
     * Stop admitting and drain: async-signal-safe enough to be called
     * from the SIGTERM handler path (sets flags + notifies).
     */
    void requestStop();

    /** True once requestStop() was called. */
    bool draining() const
    {
        return drainStartedMs_.load(std::memory_order_acquire) != 0;
    }

    /**
     * requestStop() if nothing has, then wait for the housekeeper to
     * end the drain. Returns true on a clean drain, false if sessions
     * had to be force-closed at drainDeadlineMs.
     */
    bool waitDrained();

    /** Readiness: running, not draining, watchdog not tripped. */
    bool ready() const;

    /**
     * Health snapshot: server block (state, build/version, SIMD body,
     * ring high-watermarks) + per-stage/per-session latency
     * percentiles + the full obs metrics registry.
     */
    std::string healthJson() const;

    /**
     * Server-wide latency decomposition, read from the registry's
     * serve.latency.<stage>_us histograms. Those are process-wide: a
     * process hosting several servers reads per-stage since()
     * differences.
     */
    LatencySnapshot
    latencySnapshot() const
    {
        return LatencySnapshot::fromMetrics(
            obs::MetricsRegistry::instance().snapshot());
    }

    /**
     * Enable chaos mode: every batched volley is perturbed through a
     * FaultInjector realizing @p spec, keyed deterministically by
     * (session id, seq) — live proof of the degradation contract.
     * Call before start().
     */
    void enableChaos(const fault::FaultSpec &spec);

    /**
     * Install SIGTERM/SIGINT handlers that requestStop() this server,
     * plus a SIGHUP handler that triggers the reload procedure (one
     * server per process; passing nullptr uninstalls).
     */
    static void installSignalHandlers(StreamServer *server);

    /** Called by session callbacks: wake the batcher. */
    void notifyWork();

  private:
    /** The open sessions, in id (= admission) order. */
    std::vector<std::shared_ptr<Session>> sessionSnapshot() const;

    void batcherLoop();
    void housekeeperLoop();
    /** Tick now (a drain began, or a session left during one). */
    void wakeHousekeeper();
    /** One housekeeping pass; true once the drain is over. */
    bool housekeepingTick(uint64_t now, uint64_t &forced_at_ms);
    void runBatch(std::vector<std::shared_ptr<Session>> &targets,
                  std::vector<BatchItem> &items, uint64_t now_ms);
    void sweepSessions(const std::vector<std::shared_ptr<Session>> &sessions,
                       uint64_t now_ms);

    ServeConfig config_;
    ModelRegistry registry_;
    AdmissionController admission_;

    std::mutex reloadMutex_;
    std::function<Status()> reloadHandler_;

    mutable std::mutex sessionsMutex_;
    std::map<uint64_t, std::shared_ptr<Session>> sessions_;
    uint64_t nextSessionId_ = 1;

    std::mutex workMutex_;
    std::condition_variable workCv_;
    bool workFlag_ = false;

    std::mutex tickMutex_;
    std::condition_variable tickCv_;
    bool tickFlag_ = false;

    std::atomic<bool> running_{false};
    std::atomic<bool> stopThreads_{false};
    std::atomic<bool> watchdogTripped_{false};
    std::atomic<uint64_t> batchStartMs_{0};   //!< 0 = no batch in flight
    std::atomic<uint64_t> drainStartedMs_{0}; //!< 0 = not draining
    bool drainedCleanly_ = true;              //!< set by the housekeeper
    uint64_t startedAtMs_ = 0;

    std::unique_ptr<fault::FaultInjector> chaos_;

    std::thread batcher_;
    std::thread housekeeper_;
};

} // namespace st::serve

#endif // ST_SERVE_SERVER_HPP
