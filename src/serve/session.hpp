/**
 * @file
 * One client stream: protocol state machine, window framing, bounded
 * queues, quarantine.
 *
 * A Session is the unit of isolation in the serving layer. Its three
 * actors touch disjoint ends of two bounded rings:
 *
 *   transport reader ──lines──▶ [Session parse/frame] ──▶ ingress ring
 *   batcher          ◀─pop── ingress ring   ──deliver──▶ egress ring
 *   transport writer ◀─pop── egress ring
 *
 * Parse errors poison only this session (state Quarantined: the error
 * line — with its line number — is echoed, further input is ignored
 * until `end`). Overload degrades per the contract: ingress-full first
 * signals backpressure and blocks the reader (flow control), then
 * sheds the newest volley with an accounted `drop <seq> shed`; an
 * egress stall closes this session only — after one (server-clamped)
 * deadline of grace on the reader thread, immediately on the shared
 * batcher thread, which never waits on one session's consumer.
 *
 * Wire grammar (client -> server), one line each:
 *
 *     stserve 1
 *     addresses <N> [window <W>] [deadline_ms <D>]
 *     <time> <address>          # AER event, times nondecreasing
 *     flush                     # seal the open window early
 *     end                       # end of stream, drain and finish
 *
 * Server -> client:
 *
 *     stserve-ok session <id> inputs <N>
 *     volley <seq> <payload>
 *     drop <seq> <deadline|shed|poisoned>
 *     note backpressure <on|off> | note gap <skipped>
 *     err <status>              # session quarantined
 *     end volleys <n> drops <n>
 *
 * A line longer than kMaxLineBytes quarantines its session.
 */

#ifndef ST_SERVE_SESSION_HPP
#define ST_SERVE_SESSION_HPP

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "fault/status.hpp"
#include "serve/config.hpp"
#include "serve/latency.hpp"
#include "serve/ring.hpp"
#include "tnn/volley.hpp"

namespace st::serve {

/**
 * Longest legal wire line, newline excluded. Legal lines are under
 * 100 bytes. Transports buffer at most this much of a line, so a peer
 * that never sends a newline cannot grow server memory.
 */
inline constexpr size_t kMaxLineBytes = 4096;

/** Protocol position of a session. */
enum class SessionState : uint8_t
{
    AwaitHello,  //!< expecting "stserve 1"
    AwaitConfig, //!< expecting "addresses ..."
    Streaming,   //!< accepting events
    Quarantined, //!< poisoned by bad input; draining to `end`
    Closed,      //!< finished (end line emitted, egress closed)
};

/** Per-session accounting (all monotone). */
struct SessionStats
{
    uint64_t linesIn = 0;
    uint64_t volleysIn = 0;   //!< framed and queued
    uint64_t volleysOut = 0;  //!< delivered results
    uint64_t dropsDeadline = 0;
    uint64_t dropsShed = 0;
    uint64_t dropsPoisoned = 0;
    uint64_t gapsElided = 0;  //!< silent windows skipped
};

/** One client stream (see file comment for the threading contract). */
class Session
{
  public:
    /** A framed volley waiting for the batcher. */
    struct Pending
    {
        uint64_t seq = 0;
        Volley volley;
        uint64_t enqueuedMs = 0;
        uint64_t ingressUs = 0; //!< latency stamp (0 when obs off)
    };

    /**
     * @p on_work is called (without session locks held) whenever the
     * batcher may have new work or drain progress to make.
     */
    Session(uint64_t id, const ServeConfig &config,
            size_t model_inputs, std::function<void()> on_work);

    uint64_t id() const { return id_; }
    SessionState state() const;
    SessionStats stats() const;
    uint64_t lastActivityMs() const;
    bool inputDone() const;

    /** Stamp activity (the idle timeout's reference) at @p now_ms. */
    void touch(uint64_t now_ms);

    /** True once the end line is out and the egress ring is closed. */
    bool finished() const;

    // --- transport reader side ------------------------------------
    /** Feed one wire line (without its newline). */
    void feedLine(std::string_view line, uint64_t now_ms);

    /**
     * EOF from the transport: treated as an implicit `end`.
     *
     * @p may_block is false when called from a shared server thread
     * (the batcher's drain sweep): the final seal then uses try-lock
     * and non-blocking pushes so a reader mid-submit can never stall
     * the batcher — a failed try-lock is simply retried on the next
     * sweep.
     */
    void endInput(uint64_t now_ms, bool may_block = true);

    // --- transport writer side ------------------------------------
    /**
     * Next response line, waiting up to @p timeout. nullopt with
     * finished() true means the stream is complete; nullopt otherwise
     * is a timeout — poll again.
     */
    std::optional<std::string>
    nextOutput(std::chrono::milliseconds timeout);

    // --- batcher side ---------------------------------------------
    /** Pop the oldest pending volley (FIFO), if any. */
    std::optional<Pending> popPending();

    /** Queued-but-unprocessed volley count. */
    size_t ingressDepth() const { return ingress_.size(); }

    /**
     * Deliver the result of volley @p seq (in per-session order),
     * recording its stage deltas @p latency before the line is pushed.
     */
    void deliver(uint64_t seq, const std::string &payload,
                 uint64_t now_ms, const StageDeltas &latency);

    /** Account volley @p seq as dropped ("deadline"/"poisoned"). */
    void dropVolley(uint64_t seq, const char *why, uint64_t now_ms);

    /**
     * Emit the end line and close the egress ring once input is done,
     * the ingress ring is drained and nothing is in flight. Returns
     * true when the session is (now) finished.
     */
    bool finishIfDrained(uint64_t now_ms);

    /** Mark one popped volley as in flight / done (batcher only). */
    void beginFlight(size_t n);
    void endFlight(size_t n);

    /**
     * Hard-close (idle timeout, drain deadline, stalled egress): emits
     * "err <code>: <why>", closes both rings. Idempotent.
     */
    void forceClose(const char *why, uint64_t now_ms);

    /** The per-connection deadline (config default or client's). */
    uint64_t deadlineMs() const;

    // --- observability ---------------------------------------------
    /** Per-session latency decomposition (health snapshots). */
    LatencySnapshot
    latencySnapshot() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return latency_;
    }

    /** Ring high-watermarks (lock-free; health snapshots). */
    size_t ingressHighWater() const { return ingress_.highWater(); }
    size_t egressHighWater() const { return egress_.highWater(); }

  private:
    void quarantine(Status status, uint64_t now_ms);
    void sealWindow(uint64_t now_ms);
    void sealWindowLocked(uint64_t now_ms, bool may_block);
    void handleEvent(uint64_t time, uint64_t address, uint64_t now_ms);
    void handleConfig(const std::string_view *toks, size_t ntoks,
                      uint64_t now_ms);
    void submitVolley(Volley volley, uint64_t now_ms, bool may_block);
    void emit(std::string line, uint64_t now_ms, bool may_block);

    const uint64_t id_;
    const ServeConfig config_;
    const size_t modelInputs_;
    std::function<void()> onWork_;

    BoundedRing<Pending> ingress_;
    BoundedRing<std::string> egress_;

    /**
     * Serializes every seal-and-submit path (handleEvent, flush,
     * endInput): seq assignment and the ingress push happen under one
     * lock, so two submitters can never push volleys out of window
     * order — the per-session FIFO guarantee holds even when the
     * batcher's drain sweep ends input concurrently with the reader.
     * Always acquired before mutex_; never held by the batcher except
     * via try-lock.
     */
    std::mutex submitMutex_;

    mutable std::mutex mutex_;
    SessionState state_ = SessionState::AwaitHello;
    SessionStats stats_;
    uint64_t window_;
    uint64_t deadlineMs_;
    uint64_t lineNo_ = 0;
    uint64_t nextSeq_ = 0;
    uint64_t lastActivityMs_ = 0;
    uint64_t lastEventTime_ = 0;
    bool sawEvent_ = false;
    uint64_t windowStart_ = 0;
    Volley current_;
    bool inputDone_ = false;
    bool backpressure_ = false;
    bool endEmitted_ = false;
    size_t inFlight_ = 0;
    LatencySnapshot latency_; //!< delivered volleys' stage deltas
    /**
     * Reserved slot for the terminal "err ..." line of a force-close.
     * The egress ring is usually *full* when a session is force-closed
     * (a stalled consumer is why), so the terminal line cannot ride
     * the ring; nextOutput() releases it after the ring drains, which
     * guarantees every session ends in a visible end/err line.
     */
    std::optional<std::string> terminal_;
};

} // namespace st::serve

#endif // ST_SERVE_SESSION_HPP
