#include "serve/session.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <limits>

#include "obs/flight.hpp"
#include "obs/obs.hpp"
#include "util/parse.hpp"

namespace st::serve {

namespace {

constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();

/** Saturating end of the window starting at @p start. */
uint64_t
windowEnd(uint64_t start, uint64_t window)
{
    return window > kMax - start ? kMax : start + window;
}

/** Split @p line into at most @p max whitespace tokens. */
size_t
tokenize(std::string_view line, std::string_view *toks, size_t max)
{
    size_t n = 0;
    size_t i = 0;
    while (i < line.size() && n < max) {
        while (i < line.size() &&
               (line[i] == ' ' || line[i] == '\t' || line[i] == '\r'))
            ++i;
        if (i >= line.size() || line[i] == '#')
            break;
        const size_t begin = i;
        while (i < line.size() && line[i] != ' ' && line[i] != '\t' &&
               line[i] != '\r' && line[i] != '#')
            ++i;
        toks[n++] = line.substr(begin, i - begin);
    }
    return n;
}

} // namespace

Session::Session(uint64_t id, const ServeConfig &config,
                 size_t model_inputs, std::function<void()> on_work)
    : id_(id), config_(config), modelInputs_(model_inputs),
      onWork_(std::move(on_work)),
      ingress_(static_cast<size_t>(config.ingressCapacity)),
      egress_(static_cast<size_t>(config.egressCapacity)),
      window_(config.window),
      deadlineMs_(std::min(config.deadlineMs, config.deadlineMaxMs)),
      current_(model_inputs, INF)
{
}

SessionState
Session::state() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return state_;
}

SessionStats
Session::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

uint64_t
Session::lastActivityMs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return lastActivityMs_;
}

bool
Session::inputDone() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return inputDone_;
}

bool
Session::finished() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return state_ == SessionState::Closed && egress_.closed();
}

uint64_t
Session::deadlineMs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return deadlineMs_;
}

void
Session::touch(uint64_t now_ms)
{
    std::lock_guard<std::mutex> lock(mutex_);
    lastActivityMs_ = now_ms;
}

void
Session::emit(std::string line, uint64_t now_ms, bool may_block)
{
    ST_OBS_GAUGE_MAX("serve.queue.egress_highwater",
                     egress_.highWater());
    if (egress_.tryPush(line))
        return;
    ST_OBS_ADD("serve.egress.stall", 1);
    if (!may_block) {
        // Shared batcher thread: never wait on one session's slow
        // consumer — degrade this session immediately (the terminal
        // err line rides the reserved slot).
        forceClose("egress stalled", now_ms);
        return;
    }
    // Transport reader thread: the consumer is slow, so wait out one
    // (server-clamped) deadline of grace, then degrade this session
    // only — a stalled client must not pin server memory.
    if (egress_.pushWait(std::move(line),
                         std::chrono::milliseconds(deadlineMs())))
        return;
    forceClose("egress stalled past deadline", now_ms);
}

void
Session::quarantine(Status status, uint64_t now_ms)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (state_ == SessionState::Quarantined ||
            state_ == SessionState::Closed)
            return;
        state_ = SessionState::Quarantined;
    }
    ST_OBS_ADD("serve.sessions.quarantined", 1);
    obs::FlightRecorder::instance().record("session.quarantine", id_,
                                           0, status.message());
    emit("err " + status.toString(), now_ms, /*may_block=*/true);
    if (onWork_)
        onWork_();
}

void
Session::submitVolley(Volley volley, uint64_t now_ms, bool may_block)
{
    // Caller holds submitMutex_: seq assignment and the ingress push
    // are atomic against every other submit path, so queued volleys
    // are always in seq (== window) order.
    Pending p;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        p.seq = nextSeq_++;
        p.enqueuedMs = now_ms;
    }
    if constexpr (kLatencyEnabled)
        p.ingressUs = steadyNowUs();
    p.volley = std::move(volley);
    const uint64_t seq = p.seq;

    bool pushed = ingress_.tryPush(p); // copy: p survives a refusal
    if (!pushed && may_block) {
        // Ring full: signal backpressure once, then hold the reader
        // (flow control reaches the client through the transport).
        bool signal = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!backpressure_) {
                backpressure_ = true;
                signal = true;
            }
        }
        if (signal) {
            ST_OBS_ADD("serve.backpressure.on", 1);
            emit("note backpressure on", now_ms, may_block);
        }
        pushed = ingress_.pushWait(
            std::move(p), std::chrono::milliseconds(deadlineMs()));
    }
    if (!pushed) {
        // Still full at the deadline (or a non-blocking submit from
        // the batcher's drain sweep): shed the *newest* volley
        // (reject-new before degrade-old) with full accounting.
        ST_OBS_ADD("serve.shed.volleys", 1);
        obs::FlightRecorder::instance().record("volley.drop", id_,
                                               seq, "shed");
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.dropsShed;
        }
        emit("drop " + std::to_string(seq) + " shed", now_ms,
             may_block);
        if (onWork_)
            onWork_();
        return;
    }

    bool bp_off = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.volleysIn;
        if (backpressure_ &&
            ingress_.size() <= ingress_.capacity() / 2) {
            backpressure_ = false;
            bp_off = true;
        }
    }
    if (bp_off)
        emit("note backpressure off", now_ms, may_block);
    ST_OBS_ADD("serve.volleys.in", 1);
    ST_OBS_GAUGE_MAX("serve.queue.ingress_highwater",
                     ingress_.highWater());
    if (onWork_)
        onWork_();
}

void
Session::handleEvent(uint64_t time, uint64_t address, uint64_t now_ms)
{
    // Preconditions (address range, time ordering, window position)
    // are validated by feedLine before this is called. submitMutex_
    // covers the seal *and* the submits so a concurrent drain-sweep
    // endInput cannot interleave its own seal between them.
    std::lock_guard<std::mutex> submit(submitMutex_);
    std::vector<Volley> sealed;
    uint64_t gap_skipped = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        lastEventTime_ = time;
        sawEvent_ = true;

        // Advance the window grid to the one containing @p time,
        // sealing the open window and at most maxGapWindows empty
        // ones; longer silent gaps are elided with one note line.
        uint64_t end = windowEnd(windowStart_, window_);
        if (end != kMax && time >= end) {
            sealed.push_back(std::move(current_));
            current_ = Volley(modelInputs_, INF);
            windowStart_ = end;
            uint64_t whole = (time - windowStart_) / window_;
            const uint64_t emitted =
                whole > config_.maxGapWindows ? config_.maxGapWindows
                                              : whole;
            for (uint64_t i = 0; i < emitted; ++i) {
                sealed.push_back(Volley(modelInputs_, INF));
                windowStart_ = windowEnd(windowStart_, window_);
            }
            if (whole > emitted) {
                gap_skipped = whole - emitted;
                stats_.gapsElided += gap_skipped;
                windowStart_ += gap_skipped * window_;
            }
        }
        uint64_t rel = time - windowStart_;
        if (rel == kMax)
            rel = kMax - 1; // never alias Time's inf pattern
        if (current_[address].isInf())
            current_[address] = Time(rel);
    }
    if (gap_skipped > 0) {
        ST_OBS_ADD("serve.gap.skipped", gap_skipped);
        emit("note gap " + std::to_string(gap_skipped), now_ms,
             /*may_block=*/true);
    }
    for (Volley &v : sealed)
        submitVolley(std::move(v), now_ms, /*may_block=*/true);
}

void
Session::handleConfig(const std::string_view *toks, size_t ntoks,
                      uint64_t now_ms)
{
    uint64_t addresses = 0;
    uint64_t window = config_.window;
    uint64_t deadline = config_.deadlineMs;
    bool have_addresses = false;
    size_t i = 0;
    while (i < ntoks) {
        const std::string_view key = toks[i];
        if (i + 1 >= ntoks) {
            quarantine(Status(StatusCode::InvalidArgument,
                              "config key '" + std::string(key) +
                                  "' missing a value",
                              "line " + std::to_string(lineNo_)),
                       now_ms);
            return;
        }
        const std::optional<uint64_t> value =
            parseUint64Strict(toks[i + 1]);
        if (!value) {
            quarantine(Status(StatusCode::InvalidArgument,
                              "bad value '" + std::string(toks[i + 1]) +
                                  "' for '" + std::string(key) + "'",
                              "line " + std::to_string(lineNo_)),
                       now_ms);
            return;
        }
        if (key == "addresses") {
            addresses = *value;
            have_addresses = true;
        } else if (key == "window") {
            window = *value;
        } else if (key == "deadline_ms") {
            deadline = *value;
        } else {
            quarantine(Status(StatusCode::InvalidArgument,
                              "unknown config key '" +
                                  std::string(key) + "'",
                              "line " + std::to_string(lineNo_)),
                       now_ms);
            return;
        }
        i += 2;
    }
    if (!have_addresses || addresses != modelInputs_) {
        quarantine(
            Status(StatusCode::InvalidArgument,
                   "addresses must equal the model's input width (" +
                       std::to_string(modelInputs_) + ")",
                   "line " + std::to_string(lineNo_)),
            now_ms);
        return;
    }
    if (window == 0) {
        quarantine(Status(StatusCode::OutOfRange,
                          "window must be >= 1",
                          "line " + std::to_string(lineNo_)),
                   now_ms);
        return;
    }
    if (deadline == 0)
        deadline = config_.deadlineMs;
    // Clamp to the server-side ceiling: a client must not be able to
    // configure an unbounded wait (or overflow the signed chrono
    // conversion with values > INT64_MAX).
    if (deadline > config_.deadlineMaxMs) {
        ST_OBS_ADD("serve.config.deadline_clamped", 1);
        deadline = config_.deadlineMaxMs;
        emit("note deadline_ms clamped " + std::to_string(deadline),
             now_ms, /*may_block=*/true);
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        window_ = window;
        deadlineMs_ = deadline;
        state_ = SessionState::Streaming;
    }
}

void
Session::feedLine(std::string_view line, uint64_t now_ms)
{
    touch(now_ms);
    SessionState state;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++lineNo_;
        ++stats_.linesIn;
        state = state_;
    }
    if (line.size() > kMaxLineBytes) {
        quarantine(Status(StatusCode::InvalidArgument,
                          "line longer than " +
                              std::to_string(kMaxLineBytes) + " bytes",
                          "line " + std::to_string(lineNo_)),
                   now_ms);
        return;
    }
    std::array<std::string_view, 8> toks;
    const size_t ntoks = tokenize(line, toks.data(), toks.size());
    if (ntoks == 0)
        return; // blank / comment line
    if (state == SessionState::Closed)
        return;

    // `end` is honoured from every state so a quarantined or
    // half-configured stream still terminates cleanly.
    if (ntoks == 1 && toks[0] == "end") {
        endInput(now_ms);
        return;
    }
    if (state == SessionState::Quarantined)
        return; // poisoned: ignore everything up to `end`

    switch (state) {
      case SessionState::AwaitHello:
        if (ntoks == 2 && toks[0] == "stserve" && toks[1] == "1") {
            {
                std::lock_guard<std::mutex> lock(mutex_);
                state_ = SessionState::AwaitConfig;
            }
            emit("stserve-ok session " + std::to_string(id_) +
                     " inputs " + std::to_string(modelInputs_),
                 now_ms, /*may_block=*/true);
        } else {
            quarantine(Status(StatusCode::InvalidArgument,
                              "expected 'stserve 1'",
                              "line " + std::to_string(lineNo_)),
                       now_ms);
        }
        return;
      case SessionState::AwaitConfig:
        handleConfig(toks.data(), ntoks, now_ms);
        return;
      case SessionState::Streaming:
        break;
      default:
        return;
    }

    if (ntoks == 1 && toks[0] == "flush") {
        sealWindow(now_ms);
        return;
    }
    if (ntoks != 2) {
        quarantine(Status(StatusCode::InvalidArgument,
                          "expected '<time> <address>'",
                          "line " + std::to_string(lineNo_)),
                   now_ms);
        return;
    }
    const std::optional<uint64_t> time = parseUint64Strict(toks[0]);
    const std::optional<uint64_t> address =
        parseUint64Strict(toks[1]);
    if (!time || !address) {
        quarantine(Status(StatusCode::InvalidArgument,
                          "bad event '" + std::string(line) + "'",
                          "line " + std::to_string(lineNo_)),
                   now_ms);
        return;
    }
    if (*address >= modelInputs_) {
        quarantine(Status(StatusCode::OutOfRange,
                          "address " + std::to_string(*address) +
                              " out of range (have " +
                              std::to_string(modelInputs_) + ")",
                          "line " + std::to_string(lineNo_)),
                   now_ms);
        return;
    }
    bool out_of_order = false;
    bool before_window = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        out_of_order = sawEvent_ && *time < lastEventTime_;
        before_window = !out_of_order && *time < windowStart_;
    }
    if (out_of_order) {
        quarantine(Status(StatusCode::InvalidArgument,
                          "events must be in time order",
                          "line " + std::to_string(lineNo_)),
                   now_ms);
        return;
    }
    if (before_window) {
        quarantine(Status(StatusCode::InvalidArgument,
                          "event time is inside an already flushed "
                          "window",
                          "line " + std::to_string(lineNo_)),
                   now_ms);
        return;
    }
    handleEvent(*time, *address, now_ms);
}

void
Session::sealWindow(uint64_t now_ms)
{
    std::lock_guard<std::mutex> submit(submitMutex_);
    sealWindowLocked(now_ms, /*may_block=*/true);
}

void
Session::sealWindowLocked(uint64_t now_ms, bool may_block)
{
    Volley sealed;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        sealed = std::move(current_);
        current_ = Volley(modelInputs_, INF);
        windowStart_ = windowEnd(windowStart_, window_);
    }
    submitVolley(std::move(sealed), now_ms, may_block);
}

void
Session::endInput(uint64_t now_ms, bool may_block)
{
    std::unique_lock<std::mutex> submit(submitMutex_,
                                        std::defer_lock);
    if (may_block) {
        submit.lock();
    } else if (!submit.try_lock()) {
        // A reader is mid-submit; sealing now would race its push.
        // The batcher's sweep simply retries on its next pass.
        return;
    }
    bool seal = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (inputDone_)
            return;
        // Seal the open window iff it holds a spike (matching
        // AerStream::sliceWindows, whose last window always contains
        // the last event).
        for (const Time &t : current_) {
            if (t.isFinite()) {
                seal = true;
                break;
            }
        }
    }
    if (seal)
        sealWindowLocked(now_ms, may_block);
    {
        // Done only once the last volley is queued: finishIfDrained
        // must not end the stream while that volley is in transit.
        std::lock_guard<std::mutex> lock(mutex_);
        inputDone_ = true;
        lastActivityMs_ = now_ms;
    }
    if (onWork_)
        onWork_();
}

std::optional<std::string>
Session::nextOutput(std::chrono::milliseconds timeout)
{
    std::optional<std::string> line = egress_.popWait(timeout);
    if (line)
        return line;
    // Ring closed and fully drained: release the reserved terminal
    // line (set by forceClose) exactly once, after every queued
    // delivery. A plain timeout keeps returning nullopt.
    if (!egress_.closed() || egress_.size() != 0)
        return std::nullopt;
    std::lock_guard<std::mutex> lock(mutex_);
    if (!terminal_)
        return std::nullopt;
    line = std::move(terminal_);
    terminal_.reset();
    return line;
}

std::optional<Session::Pending>
Session::popPending()
{
    return ingress_.tryPop();
}

void
Session::deliver(uint64_t seq, const std::string &payload,
                 uint64_t now_ms, const StageDeltas &latency)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.volleysOut;
        lastActivityMs_ = now_ms;
        if constexpr (kLatencyEnabled)
            for (size_t i = 0; i < kStageCount; ++i)
                latency_.stages[i].record(latency[i]);
    }
    ST_OBS_ADD("serve.volleys.out", 1);
    // One allocation per line: "volley <seq> <payload>".
    std::string line;
    line.reserve(7 + 21 + payload.size());
    line += "volley ";
    char seq_digits[20];
    line.append(seq_digits,
                std::to_chars(seq_digits, seq_digits + 20, seq).ptr);
    line += ' ';
    line += payload;
    emit(std::move(line), now_ms, /*may_block=*/false);
}

void
Session::dropVolley(uint64_t seq, const char *why, uint64_t now_ms)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        lastActivityMs_ = now_ms;
        if (std::string_view(why) == "deadline")
            ++stats_.dropsDeadline;
        else
            ++stats_.dropsPoisoned;
    }
    if (std::string_view(why) == "deadline")
        ST_OBS_ADD("serve.deadline_missed.volleys", 1);
    else
        ST_OBS_ADD("serve.volleys.dropped_poisoned", 1);
    obs::FlightRecorder::instance().record("volley.drop", id_, seq,
                                           why);
    emit("drop " + std::to_string(seq) + " " + why, now_ms,
         /*may_block=*/false);
}

void
Session::beginFlight(size_t n)
{
    std::lock_guard<std::mutex> lock(mutex_);
    inFlight_ += n;
}

void
Session::endFlight(size_t n)
{
    std::lock_guard<std::mutex> lock(mutex_);
    inFlight_ -= n;
}

bool
Session::finishIfDrained(uint64_t now_ms)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (state_ == SessionState::Closed)
            return true;
        if (!inputDone_ || inFlight_ != 0 || ingress_.size() != 0)
            return false;
        if (endEmitted_)
            return true;
        endEmitted_ = true;
    }
    SessionStats s = stats();
    emit("end volleys " + std::to_string(s.volleysOut) + " drops " +
             std::to_string(s.dropsDeadline + s.dropsShed +
                            s.dropsPoisoned),
         now_ms, /*may_block=*/false);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        state_ = SessionState::Closed;
    }
    ingress_.close();
    egress_.close();
    return true;
}

void
Session::forceClose(const char *why, uint64_t now_ms)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (state_ == SessionState::Closed) {
            return;
        }
        state_ = SessionState::Closed;
        inputDone_ = true;
        lastActivityMs_ = now_ms;
    }
    ST_OBS_ADD("serve.sessions.force_closed", 1);
    obs::FlightRecorder::instance().record("session.force_close",
                                           id_, 0, why);
    const Status status(StatusCode::DataLoss, why);
    // The egress ring is typically full here (a stalled consumer is
    // the usual reason for a force-close), so the terminal line rides
    // the reserved side slot instead: nextOutput() hands it out after
    // the ring drains. Never silently lose the err line.
    {
        std::lock_guard<std::mutex> lock(mutex_);
        terminal_ = "err " + status.toString();
    }
    ingress_.close();
    egress_.close();
    if (onWork_)
        onWork_();
}

} // namespace st::serve
