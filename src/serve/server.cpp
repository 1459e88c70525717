#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <sstream>

#include "core/eval_plan.hpp"
#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/obs.hpp"
#include "util/version.hpp"

namespace st::serve {

namespace {

/** Housekeeping period, and so the watchdog's resolution. */
constexpr std::chrono::milliseconds kTick{20};

/** Grace for force-closed sessions to retire after the drain deadline
 *  before the threads stop regardless. */
constexpr uint64_t kDrainGraceMs = 1000;

/** Signal flags polled by the housekeeping tick (handler-safe: one
 *  atomic store each). */
std::atomic<StreamServer *> g_signal_server{nullptr};
std::atomic<bool> g_stop_requested{false};
std::atomic<bool> g_reload_requested{false};

void
onStopSignal(int)
{
    g_stop_requested.store(true, std::memory_order_release);
}

void
onReloadSignal(int)
{
    g_reload_requested.store(true, std::memory_order_release);
}

/** Boot-model identity when the server is constructed from a bare
 *  ServeModel instead of an STMF file (tests, text-format daemons). */
model::ModelInfo
builtinInfo(const ServeModel &m)
{
    model::ModelInfo info;
    info.kind = m.name();
    info.id = "builtin";
    info.version = 1;
    info.inputWidth = m.numInputs();
    return info;
}

/** Whole-file CRC32C as 8 hex digits (the health checksum field). */
std::string
crcHex(uint32_t crc)
{
    char buf[9];
    std::snprintf(buf, sizeof buf, "%08x", crc);
    return buf;
}

/** Deterministic chaos stream id for (session, seq). */
uint64_t
chaosStream(uint64_t session, uint64_t seq)
{
    return (session << 32) ^ (seq * 0x9e3779b97f4a7c15ULL);
}

} // namespace

uint64_t
steadyNowMs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

StreamServer::StreamServer(std::unique_ptr<ServeModel> model,
                           ServeConfig config)
    : config_(config), registry_([&model] {
          std::shared_ptr<ServeModel> shared(std::move(model));
          model::ModelInfo info = builtinInfo(*shared);
          return ModelRegistry(std::move(shared), std::move(info));
      }()),
      admission_(config)
{
    startedAtMs_ = steadyNowMs();
}

StreamServer::StreamServer(std::shared_ptr<ServeModel> model,
                           model::ModelInfo info, ServeConfig config)
    : config_(config),
      registry_(std::move(model), std::move(info)), admission_(config)
{
    startedAtMs_ = steadyNowMs();
}

StreamServer::~StreamServer()
{
    if (running_.load(std::memory_order_acquire))
        waitDrained();
    if (g_signal_server.load(std::memory_order_acquire) == this)
        installSignalHandlers(nullptr);
}

void
StreamServer::start()
{
    bool expected = false;
    if (!running_.compare_exchange_strong(expected, true))
        return;
    stopThreads_.store(false, std::memory_order_release);
    batcher_ = std::thread([this] { batcherLoop(); });
    housekeeper_ = std::thread([this] { housekeeperLoop(); });
}

void
StreamServer::notifyWork()
{
    {
        std::lock_guard<std::mutex> lock(workMutex_);
        workFlag_ = true;
    }
    workCv_.notify_one();
}

void
StreamServer::wakeHousekeeper()
{
    {
        std::lock_guard<std::mutex> lock(tickMutex_);
        tickFlag_ = true;
    }
    tickCv_.notify_one();
}

StreamServer::OpenResult
StreamServer::openSession(const std::string &client_key)
{
    const uint64_t now = steadyNowMs();
    OpenResult result;
    std::shared_ptr<Session> session;
    {
        // Admission check and insertion under one lock: two
        // concurrent opens at maxSessions-1 must not both pass the
        // count check and overshoot the bound.
        std::lock_guard<std::mutex> lock(sessionsMutex_);
        const AdmissionController::Decision d = admission_.tryAdmit(
            client_key, now, sessions_.size(), draining());
        if (!d.admit) {
            result.retryAfterMs = d.retryAfterMs;
            result.reason = d.reason;
            return result;
        }
        const uint64_t id = nextSessionId_++;
        session = std::make_shared<Session>(
            id, config_, registry_.current()->model->numInputs(),
            [this] { notifyWork(); });
        // Admission starts the idle clock: a peer that never sends a
        // line is reaped like one that went quiet.
        session->touch(now);
        sessions_.emplace(id, session);
        ST_OBS_GAUGE_SET("serve.sessions.active", sessions_.size());
    }
    ST_OBS_ADD("serve.sessions.opened", 1);
    obs::FlightRecorder::instance().record("session.open",
                                           session->id(), 0,
                                           client_key);
    result.session = std::move(session);
    return result;
}

size_t
StreamServer::activeSessions() const
{
    std::lock_guard<std::mutex> lock(sessionsMutex_);
    return sessions_.size();
}

std::vector<std::shared_ptr<Session>>
StreamServer::sessionSnapshot() const
{
    std::vector<std::shared_ptr<Session>> snapshot;
    std::lock_guard<std::mutex> lock(sessionsMutex_);
    snapshot.reserve(sessions_.size());
    for (const auto &[id, s] : sessions_)
        snapshot.push_back(s);
    return snapshot;
}

void
StreamServer::requestStop()
{
    // The start time is the draining flag, so whoever sees the drain
    // sees its start; the clock is clamped so no drain starts at 0.
    const uint64_t now = std::max<uint64_t>(steadyNowMs(), 1);
    uint64_t not_draining = 0;
    if (!drainStartedMs_.compare_exchange_strong(not_draining, now))
        return;
    ST_OBS_ADD("serve.drain.requested", 1);
    obs::FlightRecorder::instance().record("drain.request", 0, 0);
    wakeHousekeeper();
    notifyWork();
}

bool
StreamServer::waitDrained()
{
    if (!running_.load(std::memory_order_acquire))
        return true;
    requestStop();
    // The housekeeper ends the drain, cleanly or at the deadline plus
    // grace, and stops the batcher on its way out.
    housekeeper_.join();
    batcher_.join();
    running_.store(false, std::memory_order_release);
    obs::FlightRecorder::instance().record("drain.done",
                                           drainedCleanly_ ? 1 : 0, 0);
    return drainedCleanly_;
}

bool
StreamServer::ready() const
{
    return running_.load(std::memory_order_acquire) && !draining() &&
           !watchdogTripped_.load(std::memory_order_acquire);
}

void
StreamServer::enableChaos(const fault::FaultSpec &spec)
{
    chaos_ = std::make_unique<fault::FaultInjector>(spec);
    ST_OBS_ADD("serve.chaos.enabled", 1);
}

void
StreamServer::installSignalHandlers(StreamServer *server)
{
    g_signal_server.store(server, std::memory_order_release);
    g_stop_requested.store(false, std::memory_order_release);
    g_reload_requested.store(false, std::memory_order_release);
    struct sigaction sa = {};
    if (server != nullptr) {
        sa.sa_handler = onStopSignal;
        sigemptyset(&sa.sa_mask);
        // No SA_RESTART: a blocking stdin read returns EINTR so the
        // pipe transport notices the drain promptly.
        sa.sa_flags = 0;
    } else {
        sa.sa_handler = SIG_DFL;
    }
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);
    // SIGHUP = "reload your model", the daemon-config convention. The
    // handler only flips a flag; the housekeeping tick runs the actual
    // reload so the signal context stays async-safe.
    struct sigaction hup = {};
    if (server != nullptr) {
        hup.sa_handler = onReloadSignal;
        sigemptyset(&hup.sa_mask);
        hup.sa_flags = SA_RESTART;
    } else {
        hup.sa_handler = SIG_DFL;
    }
    sigaction(SIGHUP, &hup, nullptr);
}

void
StreamServer::setReloadHandler(std::function<Status()> handler)
{
    std::lock_guard<std::mutex> lock(reloadMutex_);
    reloadHandler_ = std::move(handler);
}

Status
StreamServer::triggerReload()
{
    std::function<Status()> handler;
    {
        std::lock_guard<std::mutex> lock(reloadMutex_);
        handler = reloadHandler_;
    }
    if (!handler)
        return Status(StatusCode::FailedPrecondition,
                      "no reload handler installed (daemon not "
                      "started with a model directory)");
    ST_OBS_ADD("model.reload.requested", 1);
    const Status status = handler();
    if (!status.isOk())
        ST_LOG_WARN("serve.reload",
                    "model reload failed; incumbent keeps serving: " +
                        status.str());
    return status;
}

void
StreamServer::sweepSessions(
    const std::vector<std::shared_ptr<Session>> &sessions, uint64_t now_ms)
{
    // Session state lives in whatever model version is current when
    // the session ends; a version retired mid-session takes its state
    // with it when the last pinned batch releases the refcount.
    const std::shared_ptr<const ModelVersion> pinned =
        registry_.current();
    for (const auto &s : sessions) {
        if (draining() && !s->inputDone()) {
            // Draining: no more input will be read; what is queued
            // still flows, but the stream is logically ended. The
            // non-blocking form never waits on a reader mid-submit —
            // a refused seal is retried on the next sweep, which the
            // housekeeping tick guarantees.
            s->endInput(now_ms, /*may_block=*/false);
        }
        if (!s->finishIfDrained(now_ms))
            continue;
        bool erased = false;
        {
            std::lock_guard<std::mutex> lock(sessionsMutex_);
            erased = sessions_.erase(s->id()) > 0;
            ST_OBS_GAUGE_SET("serve.sessions.active", sessions_.size());
        }
        if (!erased)
            continue;
        pinned->model->endSession(s->id());
        ST_OBS_ADD("serve.sessions.closed", 1);
        obs::FlightRecorder::instance().record("session.close", s->id(),
                                               s->stats().volleysOut);
        // The last session out ends a drain: let the housekeeper see
        // it now rather than on its next tick.
        if (draining())
            wakeHousekeeper();
    }
}

void
StreamServer::runBatch(
    std::vector<std::shared_ptr<Session>> &targets,
    std::vector<BatchItem> &items, uint64_t now_ms)
{
    ST_TRACE_SPAN("serve.batch");
    // Pin the published model version for this whole batch: a
    // concurrent swapModel() cannot retire the engine mid-batch (the
    // shared_ptr holds its refcount), and every item of one batch is
    // answered by one version. The next gather pass re-pins.
    const std::shared_ptr<const ModelVersion> pinned =
        registry_.current();
    ServeModel &model = *pinned->model;
    if (chaos_) {
        for (BatchItem &item : items) {
            std::vector<Time> &v = item.volley;
            chaos_->perturbVolley(v,
                                  chaosStream(item.session, item.seq));
        }
    }
    batchStartMs_.store(now_ms, std::memory_order_release);
    ST_OBS_ADD("serve.batches", 1);
    ST_OBS_HIST("serve.batch.size", items.size());
    // Latency stamping: the model enter/exit stamps are taken around
    // the model call that actually carried the volley — shared by the
    // whole batch on the transactional fast path, per item on the
    // stateful / retry paths — and the egress stamp right before its
    // deliver(). The deltas land in the registry here and in the
    // session inside deliver(), before the line is pushed: once a
    // client observes a volley line, its decomposition is in both.
    const auto deliverOne = [&](size_t i, const std::string &payload,
                                VolleyStamps stamps) {
        StageDeltas deltas{};
        if constexpr (kLatencyEnabled) {
            stamps.ingressUs = items[i].ingressUs;
            stamps.admitUs = items[i].admitUs;
            stamps.egressUs = steadyNowUs();
            deltas = stageDeltas(stamps);
            recordStages(deltas);
        }
        targets[i]->deliver(items[i].seq, payload, steadyNowMs(),
                            deltas);
    };
    // One item per model call; a throw poisons exactly that volley.
    const auto processOne = [&](size_t i) {
        VolleyStamps stamps;
        try {
            if constexpr (kLatencyEnabled)
                stamps.modelEnterUs = steadyNowUs();
            const std::vector<std::string> one =
                model.processBatch({&items[i], 1},
                                   config_.nthreads);
            if constexpr (kLatencyEnabled)
                stamps.modelExitUs = steadyNowUs();
            deliverOne(i, one.empty() ? "" : one[0], stamps);
        } catch (const std::exception &) {
            targets[i]->dropVolley(items[i].seq, "poisoned",
                                   steadyNowMs());
        }
    };
    if (!model.transactional()) {
        // Stateful models commit per-session state as they iterate,
        // so a whole-batch retry after a mid-batch throw would apply
        // the items before the failure twice (double-advancing
        // reservoirs and EMAs). Feed them one item per call from the
        // start: every item commits exactly once.
        for (size_t i = 0; i < items.size(); ++i)
            processOne(i);
    } else {
        bool batch_ok = true;
        VolleyStamps stamps;
        std::vector<std::string> payloads;
        try {
            if constexpr (kLatencyEnabled)
                stamps.modelEnterUs = steadyNowUs();
            payloads = model.processBatch(items, config_.nthreads);
            if constexpr (kLatencyEnabled)
                stamps.modelExitUs = steadyNowUs();
            if (payloads.size() != items.size())
                throw StatusError(Status(
                    StatusCode::Internal,
                    "model returned " +
                        std::to_string(payloads.size()) +
                        " payloads for " +
                        std::to_string(items.size()) + " items"));
        } catch (const std::exception &e) {
            batch_ok = false;
            ST_OBS_ADD("serve.batch.panic", 1);
            obs::FlightRecorder::instance().record(
                "batch.panic", items.size(), 0, e.what());
            ST_LOG_WARN("serve.batch",
                        "batch of " + std::to_string(items.size()) +
                            " poisoned (" + e.what() +
                            "); retrying item-by-item");
            obs::FlightRecorder::instance().dump();
        }
        if (batch_ok) {
            for (size_t i = 0; i < items.size(); ++i)
                deliverOne(i, payloads[i], stamps);
        } else {
            // Panic isolation: a transactional model left no state
            // behind, so the item-by-item retry loses only the
            // poisoned volley; everything else still answers.
            for (size_t i = 0; i < items.size(); ++i)
                processOne(i);
        }
    }
    for (auto &s : targets)
        s->endFlight(1);
    batchStartMs_.store(0, std::memory_order_release);
    watchdogTripped_.store(false, std::memory_order_release);
}

void
StreamServer::batcherLoop()
{
    // Work-driven: gather at once (volleys may predate start()), again
    // at once after a gather that filled batchMax, and sleep, with no
    // timeout, only after a gather found every ingress ring empty.
    bool full = true;
    while (true) {
        if (!full) {
            std::unique_lock<std::mutex> lock(workMutex_);
            workCv_.wait(lock, [this] { return workFlag_; });
            workFlag_ = false;
        }
        if (stopThreads_.load(std::memory_order_acquire))
            return;

        const uint64_t now = steadyNowMs();

        // Round-robin gather in session-id order: one volley per
        // session per pass keeps a firehose session from starving
        // the rest, while per-session FIFO keeps sample order.
        const std::vector<std::shared_ptr<Session>> sessions =
            sessionSnapshot();
        std::vector<std::shared_ptr<Session>> targets;
        std::vector<BatchItem> items;
        bool any_ready = true;
        while (any_ready && items.size() < config_.batchMax) {
            any_ready = false;
            for (const auto &s : sessions) {
                if (items.size() >= config_.batchMax)
                    break;
                std::optional<Session::Pending> p = s->popPending();
                if (!p)
                    continue;
                any_ready = true;
                if (now > p->enqueuedMs &&
                    now - p->enqueuedMs > s->deadlineMs()) {
                    s->dropVolley(p->seq, "deadline", now);
                    continue;
                }
                s->beginFlight(1);
                targets.push_back(s);
                BatchItem item;
                item.session = s->id();
                item.seq = p->seq;
                item.volley = std::move(p->volley);
                if constexpr (kLatencyEnabled) {
                    item.ingressUs = p->ingressUs;
                    item.admitUs = steadyNowUs();
                }
                items.push_back(std::move(item));
            }
        }
        full = items.size() >= config_.batchMax;

        if (!items.empty())
            runBatch(targets, items, now);
        sweepSessions(sessions, steadyNowMs());
    }
}

void
StreamServer::housekeeperLoop()
{
    uint64_t forced_at_ms = 0; // when the drain deadline force-closed
    while (!housekeepingTick(steadyNowMs(), forced_at_ms)) {
        std::unique_lock<std::mutex> lock(tickMutex_);
        tickCv_.wait_for(lock, kTick, [this] { return tickFlag_; });
        tickFlag_ = false;
    }
    stopThreads_.store(true, std::memory_order_release);
    notifyWork();
}

bool
StreamServer::housekeepingTick(uint64_t now, uint64_t &forced_at_ms)
{
    // Watchdog: a batch in flight too long flips readiness once; the
    // batcher clears it when the batch ends.
    const uint64_t batch_start = batchStartMs_.load(std::memory_order_acquire);
    if (batch_start != 0 && now > batch_start &&
        now - batch_start > config_.watchdogStallMs &&
        !watchdogTripped_.exchange(true, std::memory_order_acq_rel)) {
        ST_OBS_ADD("serve.watchdog.stalls", 1);
        obs::FlightRecorder::instance().record("watchdog.trip",
                                               now - batch_start, 0);
        ST_LOG_ERROR("serve.watchdog",
                     "batch in flight for " +
                         std::to_string(now - batch_start) +
                         " ms (readiness false)");
        // A stalled batch is exactly the incident the recorder
        // exists for: dump the timeline while it is fresh.
        obs::FlightRecorder::instance().dump();
    }

    if (g_signal_server.load(std::memory_order_acquire) == this) {
        if (g_stop_requested.load(std::memory_order_acquire))
            requestStop();
        // SIGHUP path; triggerReload() logs failures and the registry
        // keeps the incumbent, so the verdict needs no handling here.
        if (g_reload_requested.exchange(false, std::memory_order_acq_rel))
            (void)triggerReload();
    }

    admission_.decay(now);

    // Read the drain's start before the table: nothing is admitted
    // after it, so an empty table then means the drain is over.
    const uint64_t drain_start =
        drainStartedMs_.load(std::memory_order_acquire);
    const std::vector<std::shared_ptr<Session>> sessions = sessionSnapshot();
    for (const auto &s : sessions) {
        const uint64_t last = s->lastActivityMs();
        if (!s->inputDone() && now > last &&
            now - last > config_.idleTimeoutMs) {
            ST_OBS_ADD("serve.sessions.idle_reaped", 1);
            obs::FlightRecorder::instance().record(
                "session.idle_reap", s->id(), now - last);
            ST_LOG_INFO("serve.reaper",
                        "session " + std::to_string(s->id()) +
                            " idle for " +
                            std::to_string(now - last) +
                            " ms; force-closing");
            s->forceClose("idle timeout", now);
        }
    }

    if (drain_start != 0 && forced_at_ms == 0 &&
        now >= drain_start + config_.drainDeadlineMs) {
        // Past the deadline: the contract is a bounded shutdown, so
        // the stragglers are force-closed and accounted.
        forced_at_ms = now;
        for (const auto &s : sessions) {
            if (s->finished())
                continue;
            drainedCleanly_ = false;
            ST_LOG_WARN("serve.drain",
                        "drain deadline exceeded; force-closing session " +
                            std::to_string(s->id()));
            ST_OBS_ADD("serve.drain.forced", 1);
            obs::FlightRecorder::instance().record("drain.forced", s->id(), 0);
            s->forceClose("drain deadline exceeded", now);
        }
    }
    // Retries a drain-time endInput that a reader mid-submit refused.
    notifyWork();
    if (drain_start == 0)
        return false;
    // Over once every session is gone, or the force-closed ones had
    // their grace.
    return sessions.empty() ||
           (forced_at_ms != 0 && now >= forced_at_ms + kDrainGraceMs);
}

std::string
StreamServer::healthJson() const
{
    const char *state = "stopped";
    if (running_.load(std::memory_order_acquire))
        state = draining() ? "draining" : "running";

    // Per-session detail is bounded: the top healthTopK sessions by
    // delivered volleys, so a busy server's health line stays small.
    const std::vector<std::shared_ptr<Session>> snapshot = sessionSnapshot();
    size_t ingress_hw = 0;
    size_t egress_hw = 0;
    std::vector<std::pair<uint64_t, std::shared_ptr<Session>>> ranked;
    ranked.reserve(snapshot.size());
    for (const auto &s : snapshot) {
        ingress_hw = std::max(ingress_hw, s->ingressHighWater());
        egress_hw = std::max(egress_hw, s->egressHighWater());
        ranked.emplace_back(s->stats().volleysOut, s);
    }
    const size_t top_k = std::min<size_t>(
        ranked.size(), static_cast<size_t>(config_.healthTopK));
    std::partial_sort(ranked.begin(), ranked.begin() + top_k,
                      ranked.end(),
                      [](const auto &a, const auto &b) {
                          if (a.first != b.first)
                              return a.first > b.first;
                          return a.second->id() < b.second->id();
                      });

    // One registry reading feeds the latency block and the metrics
    // block, so the two cannot disagree.
    const obs::MetricsSnapshot metrics =
        obs::MetricsRegistry::instance().snapshot();

    std::ostringstream os;
    os << "{\"server\":{";
    os << "\"state\":\"" << state << "\",";
    os << "\"ready\":" << (ready() ? "true" : "false") << ",";
    os << "\"version\":\"" << kVersionString << "\",";
    os << "\"simd\":\"" << evalSimdBodyName() << "\",";
    const std::shared_ptr<const ModelVersion> pinned =
        registry_.current();
    os << "\"model\":\"" << pinned->model->name() << "\",";
    os << "\"model_id\":\"" << pinned->info.id << "\",";
    os << "\"model_version\":" << pinned->info.version << ",";
    os << "\"model_checksum\":\"" << crcHex(pinned->info.fileCrc)
       << "\",";
    os << "\"model_epoch\":" << pinned->epoch << ",";
    os << "\"model_swaps\":" << registry_.swapCount() << ",";
    os << "\"model_swap_failed\":" << registry_.failedSwapCount()
       << ",";
    os << "\"inputs\":" << pinned->model->numInputs() << ",";
    os << "\"sessions_active\":" << activeSessions() << ",";
    os << "\"max_sessions\":" << config_.maxSessions << ",";
    os << "\"chaos\":" << (chaos_ ? "true" : "false") << ",";
    os << "\"watchdog_tripped\":"
       << (watchdogTripped_.load(std::memory_order_acquire)
               ? "true"
               : "false")
       << ",";
    os << "\"rings\":{\"ingress_highwater\":" << ingress_hw
       << ",\"egress_highwater\":" << egress_hw << "},";
    os << "\"uptime_ms\":" << (steadyNowMs() - startedAtMs_);
    os << "},\"latency\":{\"unit\":\"us\",\"stages\":";
    LatencySnapshot::fromMetrics(metrics).writeJson(os);
    os << ",\"sessions\":{";
    for (size_t i = 0; i < top_k; ++i) {
        const std::shared_ptr<Session> &s = ranked[i].second;
        os << (i ? "," : "") << "\"" << s->id()
           << "\":{\"volleys\":" << ranked[i].first
           << ",\"ingress_hw\":" << s->ingressHighWater()
           << ",\"egress_hw\":" << s->egressHighWater()
           << ",\"stages\":";
        s->latencySnapshot().writeJson(os);
        os << "}";
    }
    os << "}},\"metrics\":";
    metrics.writeJson(os);
    os << "}";
    return os.str();
}

} // namespace st::serve
