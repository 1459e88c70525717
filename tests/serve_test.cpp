/**
 * @file
 * Tier-1 tests for the serving layer: bounded rings, admission
 * control, the session protocol state machine (including quarantine
 * with line-numbered errors), window framing equivalence with the
 * offline AerStream::sliceWindows, the end-to-end StreamServer path
 * (multi-session ordering, deadline drops, poisoned-batch isolation,
 * graceful drain, a volley whose spikes are 2^61 ticks apart), the
 * housekeeping duties (idle reaping, the watchdog, the drain deadline)
 * and the work-driven batcher, and the health JSON shape.
 *
 * Everything here is in-process and socket-free; the TCP and pipe
 * transports have their own suite (serve_transport_test.cpp), and the
 * CI serve-smoke job and the chaos soak (serve_chaos_test.cpp) drive
 * them too.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/eval_plan.hpp"
#include "obs/metrics.hpp"
#include "serve/admission.hpp"
#include "serve/config.hpp"
#include "serve/latency.hpp"
#include "serve/model.hpp"
#include "serve/ring.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "tnn/aer.hpp"
#include "tnn/tnn_network.hpp"

namespace st::serve {
namespace {

// Counter ticks vanish when the obs layer is compiled out; expected
// deltas scale by this so the suite stays green under obs-off.
#if ST_OBS_ENABLED
constexpr uint64_t kTick = 1;
#else
constexpr uint64_t kTick = 0;
#endif

uint64_t
counterValue(const std::string &name)
{
    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::instance().snapshot();
    for (const auto &c : snap.counters)
        if (c.name == name)
            return c.value;
    return 0;
}

TnnNetwork
makeNet(size_t inputs)
{
    TnnNetwork net;
    ColumnParams p;
    p.numInputs = inputs;
    p.numNeurons = inputs;
    p.wtaK = 1;
    p.seed = 5;
    net.addLayer(p);
    return net;
}

/** Drain a session's egress into a vector of lines. */
std::vector<std::string>
drainAll(Session &s)
{
    std::vector<std::string> lines;
    while (true) {
        std::optional<std::string> line =
            s.nextOutput(std::chrono::milliseconds(50));
        if (line)
            lines.push_back(std::move(*line));
        else if (s.finished())
            return lines;
    }
}

size_t
countPrefix(const std::vector<std::string> &lines,
            const std::string &prefix)
{
    size_t n = 0;
    for (const auto &l : lines)
        if (l.rfind(prefix, 0) == 0)
            ++n;
    return n;
}

/** The session's next output line, or "" if none comes within 5 s. */
std::string
nextLine(Session &s)
{
    return s.nextOutput(std::chrono::seconds(5)).value_or("");
}

/** Poll @p holds every 1 ms until it is true (returns true) or 10 s
 *  pass (returns false). */
template <typename Pred>
bool
eventually(Pred holds)
{
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!holds()) {
        if (std::chrono::steady_clock::now() > until)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

// --- ServeConfig ---------------------------------------------------

TEST(ServeConfigEnv, AppliesValidValuesAndRejectsGarbage)
{
    setenv("ST_SERVE_WINDOW", "32", 1);
    setenv("ST_SERVE_DEADLINE_MS", "soon", 1); // typo'd: fallback
    const uint64_t before = counterValue("env.parse_rejected");
    const ServeConfig config = ServeConfig::fromEnv();
    unsetenv("ST_SERVE_WINDOW");
    unsetenv("ST_SERVE_DEADLINE_MS");
    EXPECT_EQ(config.window, 32u);
    EXPECT_EQ(config.deadlineMs, ServeConfig().deadlineMs);
    EXPECT_EQ(counterValue("env.parse_rejected"), before + kTick);
}

// --- BoundedRing ---------------------------------------------------

TEST(BoundedRing, BoundsAndFifo)
{
    BoundedRing<int> ring(2);
    EXPECT_TRUE(ring.tryPush(1));
    EXPECT_TRUE(ring.tryPush(2));
    EXPECT_FALSE(ring.tryPush(3)); // full: refused, not resized
    EXPECT_EQ(ring.size(), 2u);
    EXPECT_EQ(ring.highWater(), 2u);
    EXPECT_EQ(ring.tryPop().value(), 1);
    EXPECT_EQ(ring.tryPop().value(), 2);
    EXPECT_FALSE(ring.tryPop().has_value());
}

TEST(BoundedRing, PushWaitTimesOutWhenFull)
{
    BoundedRing<int> ring(1);
    ASSERT_TRUE(ring.tryPush(1));
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(ring.pushWait(2, std::chrono::milliseconds(30)));
    EXPECT_GE(std::chrono::steady_clock::now() - t0,
              std::chrono::milliseconds(25));
}

TEST(BoundedRing, PushWaitSucceedsWhenConsumerDrains)
{
    BoundedRing<int> ring(1);
    ASSERT_TRUE(ring.tryPush(1));
    std::thread consumer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        ring.tryPop();
    });
    EXPECT_TRUE(ring.pushWait(2, std::chrono::milliseconds(500)));
    consumer.join();
    EXPECT_EQ(ring.tryPop().value(), 2);
}

TEST(BoundedRing, CloseDrainsButRefusesPushes)
{
    BoundedRing<int> ring(4);
    ring.tryPush(7);
    ring.close();
    EXPECT_TRUE(ring.closed());
    EXPECT_FALSE(ring.tryPush(8));
    EXPECT_EQ(ring.tryPop().value(), 7); // drain-only semantics
    EXPECT_FALSE(ring.popWait(std::chrono::milliseconds(10)));
}

TEST(BoundedRing, CloseWakesBlockedWaiters)
{
    // One full ring (pusher blocks on space) and one empty ring
    // (popper blocks on data): close() must release both without a
    // producer/consumer on the other end.
    BoundedRing<int> full(1);
    ASSERT_TRUE(full.tryPush(1));
    BoundedRing<int> empty(1);
    std::thread pusher([&] {
        EXPECT_FALSE(full.pushWait(2, std::chrono::seconds(10)));
    });
    std::thread popper([&] {
        EXPECT_FALSE(empty.popWait(std::chrono::seconds(10)));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    full.close();
    empty.close();
    pusher.join();
    popper.join();
    // Closed rings still drain what they hold.
    EXPECT_EQ(full.tryPop().value(), 1);
}

// --- Admission -----------------------------------------------------

TEST(Admission, RejectsAtCapacityWithBackoff)
{
    ServeConfig config;
    config.maxSessions = 2;
    config.retryAfterMs = 100;
    config.retryAfterMaxMs = 400;
    AdmissionController adm(config);

    EXPECT_TRUE(adm.tryAdmit("a", 0, 0, false).admit);
    EXPECT_TRUE(adm.tryAdmit("a", 0, 1, false).admit);
    auto d1 = adm.tryAdmit("a", 0, 2, false);
    EXPECT_FALSE(d1.admit);
    EXPECT_STREQ(d1.reason, "capacity");
    EXPECT_EQ(d1.retryAfterMs, 100u);
    // Repeat offender: penalty doubles, capped.
    EXPECT_EQ(adm.tryAdmit("a", 1, 2, false).retryAfterMs, 200u);
    EXPECT_EQ(adm.tryAdmit("a", 2, 2, false).retryAfterMs, 400u);
    EXPECT_EQ(adm.tryAdmit("a", 3, 2, false).retryAfterMs, 400u);
    // A different client starts at the base hint.
    EXPECT_EQ(adm.tryAdmit("b", 3, 2, false).retryAfterMs, 100u);
    EXPECT_EQ(adm.offenderCount(), 2u);
}

TEST(Admission, RejectsWhileDrainingRegardlessOfCapacity)
{
    ServeConfig config;
    config.maxSessions = 8;
    AdmissionController adm(config);
    auto d = adm.tryAdmit("x", 0, 0, true);
    EXPECT_FALSE(d.admit);
    EXPECT_STREQ(d.reason, "draining");
}

TEST(Admission, DecayHealsOffenders)
{
    ServeConfig config;
    config.maxSessions = 0; // everything rejected
    config.retryAfterMs = 100;
    config.retryAfterMaxMs = 1600;
    config.offenderDecayMs = 50;
    AdmissionController adm(config);
    adm.tryAdmit("a", 0, 0, false);
    adm.tryAdmit("a", 1, 0, false);
    adm.tryAdmit("a", 2, 0, false); // penalty now 400
    ASSERT_EQ(adm.offenderCount(), 1u);
    adm.decay(2 + 500); // many decay periods later
    EXPECT_EQ(adm.offenderCount(), 0u);
}

// --- Session protocol ----------------------------------------------

ServeConfig
sessionConfig()
{
    ServeConfig config;
    config.window = 8;
    config.ingressCapacity = 64;
    config.egressCapacity = 256;
    config.deadlineMs = 5000;
    return config;
}

TEST(Session, HelloThenConfigThenStreaming)
{
    Session s(1, sessionConfig(), 4, nullptr);
    EXPECT_EQ(s.state(), SessionState::AwaitHello);
    s.feedLine("stserve 1", 0);
    EXPECT_EQ(s.state(), SessionState::AwaitConfig);
    s.feedLine("addresses 4 window 8", 0);
    EXPECT_EQ(s.state(), SessionState::Streaming);
    auto hello = s.nextOutput(std::chrono::milliseconds(100));
    ASSERT_TRUE(hello.has_value());
    EXPECT_EQ(*hello, "stserve-ok session 1 inputs 4");
}

TEST(Session, ClientDeadlineIsClampedToServerCeiling)
{
    ServeConfig config = sessionConfig();
    config.deadlineMaxMs = 2000;
    Session s(1, config, 4, nullptr);
    s.feedLine("stserve 1", 0);
    // 2^64-1 would overflow the signed chrono conversion (and stall
    // the egress grace wait forever) if honoured verbatim.
    s.feedLine("addresses 4 deadline_ms 18446744073709551615", 0);
    EXPECT_EQ(s.state(), SessionState::Streaming);
    EXPECT_EQ(s.deadlineMs(), 2000u);
    bool sawClampNote = false;
    std::optional<std::string> line;
    while ((line = s.nextOutput(std::chrono::milliseconds(10))))
        if (line->rfind("note deadline_ms clamped", 0) == 0)
            sawClampNote = true;
    EXPECT_TRUE(sawClampNote);

    // The ceiling also bounds a server config with a huge default.
    ServeConfig big = sessionConfig();
    big.deadlineMs = 10000000;
    big.deadlineMaxMs = 3000;
    Session t(2, big, 4, nullptr);
    EXPECT_EQ(t.deadlineMs(), 3000u);
}

TEST(Session, BadHelloQuarantinesWithLineNumber)
{
    Session s(1, sessionConfig(), 4, nullptr);
    s.feedLine("GET / HTTP/1.1", 0);
    EXPECT_EQ(s.state(), SessionState::Quarantined);
    auto err = s.nextOutput(std::chrono::milliseconds(100));
    ASSERT_TRUE(err.has_value());
    EXPECT_NE(err->find("err "), std::string::npos);
    EXPECT_NE(err->find("[line 1]"), std::string::npos);
}

TEST(Session, LineLengthBoundIsExact)
{
    Session s(1, sessionConfig(), 4, nullptr);
    s.feedLine("stserve 1", 0);
    s.feedLine("addresses 4", 0);
    ASSERT_TRUE(s.nextOutput(std::chrono::milliseconds(100)));
    // A longest legal line: an event padded out with a comment.
    std::string line = "0 1 #";
    line.resize(kMaxLineBytes, 'x');
    s.feedLine(line, 0);
    EXPECT_EQ(s.state(), SessionState::Streaming);
    line.push_back('x');
    s.feedLine(line, 0);
    EXPECT_EQ(s.state(), SessionState::Quarantined);
    auto err = s.nextOutput(std::chrono::milliseconds(100));
    ASSERT_TRUE(err.has_value());
    EXPECT_NE(err->find("err invalid_argument"), std::string::npos);
    EXPECT_NE(err->find(std::to_string(kMaxLineBytes) + " bytes"),
              std::string::npos)
        << *err;
    EXPECT_NE(err->find("[line 4]"), std::string::npos) << *err;
}

TEST(Session, WrongAddressCountQuarantines)
{
    Session s(1, sessionConfig(), 4, nullptr);
    s.feedLine("stserve 1", 0);
    s.feedLine("addresses 9", 0);
    EXPECT_EQ(s.state(), SessionState::Quarantined);
}

TEST(Session, OutOfOrderEventQuarantinesOnlyThisSession)
{
    Session a(1, sessionConfig(), 4, nullptr);
    Session b(2, sessionConfig(), 4, nullptr);
    for (Session *s : {&a, &b}) {
        s->feedLine("stserve 1", 0);
        s->feedLine("addresses 4", 0);
    }
    a.feedLine("10 0", 0);
    a.feedLine("3 1", 0); // time went backwards
    EXPECT_EQ(a.state(), SessionState::Quarantined);
    b.feedLine("10 0", 0);
    EXPECT_EQ(b.state(), SessionState::Streaming);

    // Quarantined sessions ignore further input but honour `end`.
    a.feedLine("11 0", 0);
    a.feedLine("end", 0);
    EXPECT_TRUE(a.inputDone());
}

TEST(Session, GarbageEventLineReportsLineNumber)
{
    Session s(1, sessionConfig(), 4, nullptr);
    s.feedLine("stserve 1", 0);
    s.feedLine("addresses 4", 0);
    s.feedLine("", 0); // blank lines still count for numbering
    s.feedLine("5 bananas", 0);
    EXPECT_EQ(s.state(), SessionState::Quarantined);
    std::optional<std::string> line;
    std::string err;
    while ((line = s.nextOutput(std::chrono::milliseconds(50)))) {
        if (line->rfind("err ", 0) == 0) {
            err = *line;
            break;
        }
    }
    EXPECT_NE(err.find("[line 4]"), std::string::npos) << err;
}

TEST(Session, FramingMatchesSliceWindows)
{
    // The serving grid must agree with the offline slicer so a model
    // trained on sliceWindows sees identical volleys when served.
    AerStream stream(4);
    stream.push(0, 0);
    stream.push(3, 1);
    stream.push(9, 2);  // second window
    stream.push(9, 2);  // duplicate: first event per address wins
    stream.push(26, 3); // skips window [16,24)
    const uint64_t window = 8;
    const std::vector<Volley> expected = stream.sliceWindows(window);

    ServeConfig config = sessionConfig();
    config.window = window;
    Session s(1, config, 4, nullptr);
    s.feedLine("stserve 1", 0);
    s.feedLine("addresses 4", 0);
    for (const AerEvent &e : stream.events())
        s.feedLine(std::to_string(e.time) + " " +
                       std::to_string(e.address),
                   0);
    s.endInput(0);

    std::vector<Volley> framed;
    while (auto p = s.popPending())
        framed.push_back(std::move(p->volley));
    EXPECT_EQ(framed, expected);
}

TEST(Session, GapElisionEmitsNote)
{
    ServeConfig config = sessionConfig();
    config.window = 8;
    config.maxGapWindows = 2;
    Session s(1, config, 4, nullptr);
    s.feedLine("stserve 1", 0);
    s.feedLine("addresses 4", 0);
    s.feedLine("0 0", 0);
    s.feedLine("800 1", 0); // ~100 windows later
    s.endInput(0);

    size_t pending = 0;
    while (s.popPending())
        ++pending;
    // Sealed first window + at most maxGapWindows empties + final.
    EXPECT_EQ(pending, 1u + 2u + 1u);
    EXPECT_GT(s.stats().gapsElided, 0u);

    bool sawGapNote = false;
    std::optional<std::string> line;
    while ((line = s.nextOutput(std::chrono::milliseconds(10))))
        if (line->rfind("note gap ", 0) == 0)
            sawGapNote = true;
    EXPECT_TRUE(sawGapNote);
}

TEST(Session, BackpressureThenShedWithAccounting)
{
    ServeConfig config = sessionConfig();
    config.window = 8;
    config.ingressCapacity = 2;
    config.deadlineMs = 10; // short: shed instead of blocking long
    Session s(1, config, 4, nullptr);
    s.feedLine("stserve 1", 0);
    s.feedLine("addresses 4", 0);
    const uint64_t before = counterValue("serve.shed.volleys");
    for (uint64_t w = 0; w < 6; ++w) {
        s.feedLine(std::to_string(w * 8) + " 0", 0);
        s.feedLine("flush", 0);
    }
    const SessionStats st = s.stats();
    EXPECT_EQ(st.volleysIn, 2u); // ring capacity
    EXPECT_EQ(st.dropsShed, 4u); // everything else shed, accounted
    EXPECT_EQ(counterValue("serve.shed.volleys"), before + 4 * kTick);

    std::vector<std::string> lines;
    std::optional<std::string> line;
    while ((line = s.nextOutput(std::chrono::milliseconds(10))))
        lines.push_back(std::move(*line));
    EXPECT_EQ(countPrefix(lines, "drop "), 4u);
    EXPECT_EQ(countPrefix(lines, "note backpressure on"), 1u);
}

TEST(Session, EndOfInputNeverOvertakesItsLastVolley)
{
    // `end` seals the open window on the reader thread while the
    // batcher sweeps. The sweep may end the stream only once that
    // last volley is in the ring; ending it any earlier sheds the
    // volley after the end line.
    for (int trial = 0; trial < 100; ++trial) {
        Session s(1, sessionConfig(), 4, nullptr);
        s.feedLine("stserve 1", 0);
        s.feedLine("addresses 4", 0);
        s.feedLine("3 2", 0); // the open window holds a spike
        std::atomic<bool> sweeping{false};
        std::thread batcher([&] {
            sweeping.store(true);
            while (!s.finishIfDrained(0)) {
                if (std::optional<Session::Pending> p = s.popPending()) {
                    s.beginFlight(1);
                    s.deliver(p->seq, "x", 0, {});
                    s.endFlight(1);
                }
            }
        });
        while (!sweeping.load())
            std::this_thread::yield();
        s.endInput(0);
        batcher.join();
        const std::vector<std::string> lines = drainAll(s);
        ASSERT_EQ(lines.size(), 3u) << "trial " << trial;
        EXPECT_EQ(lines[1], "volley 0 x") << "trial " << trial;
        EXPECT_EQ(lines[2], "end volleys 1 drops 0") << "trial " << trial;
    }
}

// --- StreamServer end-to-end ---------------------------------------

struct ClientRun
{
    std::vector<std::string> lines;
    uint64_t delivered = 0;
    uint64_t dropped = 0;
    bool orderOk = true;
};

ClientRun
driveSession(Session &s, size_t volleys, uint64_t window,
             uint64_t stride)
{
    s.feedLine("stserve 1", steadyNowMs());
    s.feedLine("addresses 4 window " + std::to_string(window),
               steadyNowMs());
    for (size_t w = 0; w < volleys; ++w) {
        const uint64_t base = w * window;
        s.feedLine(std::to_string(base + (w % window)) + " " +
                       std::to_string((w * stride) % 4),
                   steadyNowMs());
        s.feedLine("flush", steadyNowMs());
    }
    s.feedLine("end", steadyNowMs());

    ClientRun run;
    run.lines = drainAll(s);
    uint64_t lastSeq = 0;
    bool sawSeq = false;
    for (const auto &l : run.lines) {
        if (l.rfind("volley ", 0) == 0) {
            const uint64_t seq = std::stoull(l.substr(7));
            if (sawSeq && seq <= lastSeq)
                run.orderOk = false;
            lastSeq = seq;
            sawSeq = true;
            ++run.delivered;
        } else if (l.rfind("drop ", 0) == 0) {
            ++run.dropped;
        }
    }
    return run;
}

TEST(StreamServer, MultiSessionOrderAndPayloadCorrectness)
{
    TnnNetwork net = makeNet(4);
    ServeConfig config;
    config.window = 8;
    config.deadlineMs = 10000;
    StreamServer server(std::make_unique<TnnServeModel>(net), config);
    server.start();

    constexpr size_t kSessions = 3;
    constexpr size_t kVolleys = 20;
    std::vector<std::shared_ptr<Session>> sessions;
    for (size_t i = 0; i < kSessions; ++i) {
        auto open = server.openSession("t" + std::to_string(i));
        ASSERT_TRUE(open.session != nullptr);
        sessions.push_back(open.session);
    }
    std::vector<ClientRun> runs(kSessions);
    std::vector<std::thread> drivers;
    for (size_t i = 0; i < kSessions; ++i)
        drivers.emplace_back([&, i] {
            runs[i] = driveSession(*sessions[i], kVolleys, 8, i + 1);
        });
    for (auto &d : drivers)
        d.join();

    for (size_t i = 0; i < kSessions; ++i) {
        EXPECT_TRUE(runs[i].orderOk) << "session " << i;
        EXPECT_EQ(runs[i].delivered, kVolleys) << "session " << i;
        EXPECT_EQ(runs[i].dropped, 0u) << "session " << i;
    }

    // Payload correctness: the served output must equal the offline
    // reference computation volley-for-volley.
    for (size_t i = 0; i < kSessions; ++i) {
        size_t w = 0;
        for (const auto &l : runs[i].lines) {
            if (l.rfind("volley ", 0) != 0)
                continue;
            Volley input(4, INF);
            input[(w * (i + 1)) % 4] = Time(w % 8);
            const std::string expected =
                wireVolley(net.process(input));
            const size_t payloadAt = l.find(' ', 7) + 1;
            EXPECT_EQ(l.substr(payloadAt), expected)
                << "session " << i << " volley " << w;
            ++w;
        }
    }

    server.requestStop();
    EXPECT_TRUE(server.waitDrained());
    EXPECT_EQ(server.activeSessions(), 0u);
}

TEST(StreamServer, ExpiredVolleysDropAsDeadline)
{
    ServeConfig config;
    config.window = 8;
    config.deadlineMs = 1;
    StreamServer server(std::make_unique<TnnServeModel>(makeNet(4)),
                        config);
    // Deliberately NOT started: everything queued expires first.
    auto open = server.openSession("d");
    ASSERT_TRUE(open.session != nullptr);
    Session &s = *open.session;
    s.feedLine("stserve 1", steadyNowMs());
    s.feedLine("addresses 4", steadyNowMs());
    for (uint64_t w = 0; w < 4; ++w) {
        s.feedLine(std::to_string(w * 8) + " 0", steadyNowMs());
        s.feedLine("flush", steadyNowMs());
    }
    s.feedLine("end", steadyNowMs());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    server.start();

    const std::vector<std::string> lines = drainAll(s);
    EXPECT_EQ(countPrefix(lines, "volley "), 0u);
    EXPECT_EQ(countPrefix(lines, "drop "), 4u);
    for (const auto &l : lines) {
        if (l.rfind("drop ", 0) == 0) {
            EXPECT_NE(l.find(" deadline"), std::string::npos) << l;
        }
    }
    EXPECT_EQ(s.stats().dropsDeadline, 4u);
    server.requestStop();
    server.waitDrained();
}

/** Throws on a marked volley: exercises panic isolation. */
class PoisonModel : public ServeModel
{
  public:
    size_t numInputs() const override { return 2; }
    std::string name() const override { return "poison"; }

    std::vector<std::string>
    processBatch(std::span<const BatchItem> items, size_t) override
    {
        std::vector<std::string> out;
        for (const BatchItem &item : items) {
            if (item.volley[0] == Time(7))
                throw std::runtime_error("poison volley");
            out.push_back(wireVolley(item.volley));
        }
        return out;
    }
};

TEST(StreamServer, PoisonedVolleyIsIsolatedNotFatal)
{
    ServeConfig config;
    config.window = 8;
    config.deadlineMs = 10000;
    config.batchMax = 16;
    StreamServer server(std::make_unique<PoisonModel>(), config);
    auto open = server.openSession("p");
    ASSERT_TRUE(open.session != nullptr);
    Session &s = *open.session;
    s.feedLine("stserve 1", steadyNowMs());
    s.feedLine("addresses 2", steadyNowMs());
    // Volley 1 carries the poison marker (time 7 on address 0).
    s.feedLine("0 0", steadyNowMs());
    s.feedLine("flush", steadyNowMs());
    s.feedLine("15 0", steadyNowMs()); // rel 7 in window [8,16)
    s.feedLine("flush", steadyNowMs());
    s.feedLine("16 1", steadyNowMs());
    s.feedLine("end", steadyNowMs());
    server.start();

    const std::vector<std::string> lines = drainAll(s);
    EXPECT_EQ(countPrefix(lines, "volley "), 2u);
    EXPECT_EQ(countPrefix(lines, "drop 1 poisoned"), 1u);
    EXPECT_EQ(s.stats().dropsPoisoned, 1u);
    server.requestStop();
    EXPECT_TRUE(server.waitDrained());
}

/**
 * Stateful model that commits per-seq state as it iterates (like the
 * LSM reservoir) and throws on a marked volley. transactional() stays
 * false (the default), so the server must feed one item per call —
 * a whole-batch retry after the throw would re-apply committed items.
 */
class StatefulPoisonModel : public ServeModel
{
  public:
    size_t numInputs() const override { return 2; }
    std::string name() const override { return "stateful-poison"; }

    std::vector<std::string>
    processBatch(std::span<const BatchItem> items, size_t) override
    {
        std::vector<std::string> out;
        for (const BatchItem &item : items) {
            if (item.volley[0] == Time(7))
                throw std::runtime_error("poison volley");
            ++applied[item.seq]; // committed before any later throw
            out.push_back(wireVolley(item.volley));
        }
        return out;
    }

    std::unordered_map<uint64_t, int> applied;
};

TEST(StreamServer, StatefulModelCommitsEachVolleyExactlyOnce)
{
    ServeConfig config;
    config.window = 8;
    config.deadlineMs = 10000;
    config.batchMax = 16;
    auto model = std::make_unique<StatefulPoisonModel>();
    StatefulPoisonModel *stateful = model.get();
    StreamServer server(std::move(model), config);
    auto open = server.openSession("sp");
    ASSERT_TRUE(open.session != nullptr);
    Session &s = *open.session;
    s.feedLine("stserve 1", steadyNowMs());
    s.feedLine("addresses 2", steadyNowMs());
    s.feedLine("0 0", steadyNowMs());
    s.feedLine("flush", steadyNowMs());
    s.feedLine("15 0", steadyNowMs()); // poison: rel 7 in [8,16)
    s.feedLine("flush", steadyNowMs());
    s.feedLine("16 1", steadyNowMs());
    s.feedLine("end", steadyNowMs());
    server.start();

    const std::vector<std::string> lines = drainAll(s);
    EXPECT_EQ(countPrefix(lines, "volley "), 2u);
    EXPECT_EQ(countPrefix(lines, "drop 1 poisoned"), 1u);
    server.requestStop();
    EXPECT_TRUE(server.waitDrained());
    // The regression this pins: seqs 0 and 2 applied exactly once
    // (a batch-then-retry path would apply seq 0 twice), the poisoned
    // seq 1 never.
    EXPECT_EQ(stateful->applied.size(), 2u);
    EXPECT_EQ(stateful->applied[0], 1);
    EXPECT_EQ(stateful->applied[2], 1);
    EXPECT_EQ(stateful->applied.count(1), 0u);
}

TEST(StreamServer, ConcurrentOpensNeverOvershootMaxSessions)
{
    ServeConfig config;
    config.maxSessions = 4;
    StreamServer server(std::make_unique<TnnServeModel>(makeNet(4)),
                        config);
    server.start();
    std::mutex mu;
    std::vector<std::shared_ptr<Session>> admitted;
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&, t] {
            auto open = server.openSession("c" + std::to_string(t));
            if (open.session) {
                std::lock_guard<std::mutex> lock(mu);
                admitted.push_back(open.session);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    // Admission and insertion are atomic: the bound holds even when
    // every open races at maxSessions-1.
    EXPECT_LE(admitted.size(), 4u);
    EXPECT_LE(server.activeSessions(), 4u);
    for (auto &s : admitted)
        s->endInput(steadyNowMs());
    server.requestStop();
    EXPECT_TRUE(server.waitDrained());
}

TEST(StreamServer, DrainRejectsNewSessions)
{
    ServeConfig config;
    StreamServer server(std::make_unique<TnnServeModel>(makeNet(4)),
                        config);
    server.start();
    server.requestStop();
    auto open = server.openSession("late");
    EXPECT_TRUE(open.session == nullptr);
    EXPECT_STREQ(open.reason, "draining");
    EXPECT_GT(open.retryAfterMs, 0u);
    EXPECT_TRUE(server.waitDrained());
}

TEST(StreamServer, ShedsSessionsPastCapacityWithRetryHints)
{
    ServeConfig config;
    config.maxSessions = 1;
    config.retryAfterMs = 50;
    StreamServer server(std::make_unique<TnnServeModel>(makeNet(4)),
                        config);
    server.start();
    const uint64_t before = counterValue("serve.shed.sessions");
    auto first = server.openSession("k");
    ASSERT_TRUE(first.session != nullptr);
    auto second = server.openSession("k");
    EXPECT_TRUE(second.session == nullptr);
    EXPECT_STREQ(second.reason, "capacity");
    EXPECT_EQ(second.retryAfterMs, 50u);
    auto third = server.openSession("k");
    EXPECT_EQ(third.retryAfterMs, 100u); // backoff doubles
    EXPECT_EQ(counterValue("serve.shed.sessions"), before + 2 * kTick);
    first.session->endInput(steadyNowMs());
    server.requestStop();
    EXPECT_TRUE(server.waitDrained());
}

TEST(StreamServer, HealthJsonShape)
{
    ServeConfig config;
    StreamServer server(std::make_unique<TnnServeModel>(makeNet(4)),
                        config);
    server.start();
    EXPECT_TRUE(server.ready());
    const std::string json = server.healthJson();
    EXPECT_NE(json.find("\"server\":{"), std::string::npos);
    EXPECT_NE(json.find("\"state\":\"running\""), std::string::npos);
    EXPECT_NE(json.find("\"ready\":true"), std::string::npos);
    EXPECT_NE(json.find("\"model\":\"tnn\""), std::string::npos);
    EXPECT_NE(json.find("\"sessions_active\":0"), std::string::npos);
    EXPECT_NE(json.find("\"metrics\":{"), std::string::npos);
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    server.requestStop();
    server.waitDrained();
    EXPECT_FALSE(server.ready());
    EXPECT_NE(server.healthJson().find("\"state\":\"stopped\""),
              std::string::npos);
}

TEST(StreamServer, LsmModelKeepsPerSessionStateAndDropsItOnEnd)
{
    ReservoirParams params;
    params.numInputs = 4;
    params.numNeurons = 24;
    auto model = std::make_unique<LsmAnomalyModel>(params, 4);
    LsmAnomalyModel *lsm = model.get();
    ServeConfig config;
    config.window = 8;
    config.deadlineMs = 10000;
    StreamServer server(std::move(model), config);
    server.start();

    auto a = server.openSession("a");
    auto b = server.openSession("b");
    ASSERT_TRUE(a.session && b.session);
    std::thread ta([&] { driveSession(*a.session, 6, 8, 1); });
    std::thread tb([&] { driveSession(*b.session, 6, 8, 2); });
    ta.join();
    tb.join();
    server.requestStop();
    EXPECT_TRUE(server.waitDrained());
    // Reservoir state existed per session and was reclaimed on end.
    EXPECT_EQ(lsm->statefulSessions(), 0u);
}

// --- observability: ring high-water + latency decomposition --------

TEST(BoundedRing, HighWaterTracksPeakDepthNotCurrent)
{
    BoundedRing<int> ring(4);
    EXPECT_EQ(ring.highWater(), 0u);
    ring.tryPush(1);
    ring.tryPush(2);
    ring.tryPush(3);
    EXPECT_EQ(ring.highWater(), 3u);
    ring.tryPop();
    ring.tryPop();
    // Draining must not lower the mark...
    EXPECT_EQ(ring.highWater(), 3u);
    ring.tryPush(4);
    // ...and a shallower refill must not raise it.
    EXPECT_EQ(ring.highWater(), 3u);
}

TEST(BoundedRing, HighWaterReadsAreRaceFreeAgainstPushers)
{
    // A health poll reads highWater() lock-free while producers and
    // the consumer run; TSan (the CI sanitizer job) is the real
    // assertion here, the bound check just keeps the test honest.
    BoundedRing<int> ring(8);
    std::atomic<bool> stop{false};
    std::thread reader([&] {
        size_t last = 0;
        while (!stop.load(std::memory_order_acquire)) {
            const size_t hw = ring.highWater();
            EXPECT_GE(hw, last); // monotone under observation
            EXPECT_LE(hw, 8u);
            last = hw;
        }
    });
    std::thread popper([&] {
        while (!stop.load(std::memory_order_acquire))
            ring.tryPop();
    });
    for (int i = 0; i < 20000; ++i)
        ring.tryPush(i);
    stop.store(true, std::memory_order_release);
    reader.join();
    popper.join();
    EXPECT_GE(ring.highWater(), 1u);
}

TEST(StreamServer, HealthReportsBuildInfo)
{
    ServeConfig config;
    StreamServer server(std::make_unique<TnnServeModel>(makeNet(4)),
                        config);
    server.start();
    const std::string json = server.healthJson();
    EXPECT_NE(json.find("\"version\":\""), std::string::npos);
    const char *simd = evalSimdBodyName();
    const bool known = std::string(simd) == "avx512" ||
                       std::string(simd) == "avx2" ||
                       std::string(simd) == "neon" ||
                       std::string(simd) == "scalar";
    EXPECT_TRUE(known) << simd;
    EXPECT_NE(json.find("\"simd\":\"" + std::string(simd) + "\""),
              std::string::npos);
    EXPECT_NE(json.find("\"rings\":{\"ingress_highwater\":"),
              std::string::npos);
    EXPECT_NE(json.find("\"uptime_ms\":"), std::string::npos);
    server.requestStop();
    server.waitDrained();
}

/**
 * Feed @p volleys windows and drain until all results arrived, but do
 * NOT end the session: the health tests below need it still resident
 * (a finished session is swept from the server's table).
 */
uint64_t
driveWithoutEnd(Session &s, size_t volleys, uint64_t window)
{
    s.feedLine("stserve 1", steadyNowMs());
    s.feedLine("addresses 4 window " + std::to_string(window),
               steadyNowMs());
    for (size_t w = 0; w < volleys; ++w) {
        s.feedLine(std::to_string(w * window) + " " +
                       std::to_string(w % 4),
                   steadyNowMs());
        s.feedLine("flush", steadyNowMs());
    }
    uint64_t delivered = 0;
    while (delivered < volleys) {
        std::optional<std::string> line =
            s.nextOutput(std::chrono::milliseconds(1000));
        if (!line)
            break; // a full second idle: give up, let asserts report
        if (line->rfind("volley ", 0) == 0)
            ++delivered;
    }
    return delivered;
}

TEST(StreamServer, HealthReportsLatencyBlock)
{
    ServeConfig config;
    config.window = 8;
    config.deadlineMs = 60000; // nothing may expire into a drop
    StreamServer server(std::make_unique<TnnServeModel>(makeNet(4)),
                        config);
    server.start();
    // The server-wide stages are the registry's, so process-wide:
    // this server's share is the difference across its run.
    const LatencySnapshot before = server.latencySnapshot();
    auto open = server.openSession("lat");
    ASSERT_TRUE(open.session != nullptr);
    const uint64_t delivered = driveWithoutEnd(*open.session, 100, 8);
    EXPECT_EQ(delivered, 100u);

    // The latency block is part of the health schema in BOTH build
    // flavors; ST_OBS_ENABLED only decides whether counts are live.
    const std::string json = server.healthJson();
    EXPECT_NE(json.find("\"latency\":{\"unit\":\"us\",\"stages\":"),
              std::string::npos);
    for (size_t stage = 0; stage < kStageCount; ++stage) {
        EXPECT_NE(json.find("\"" + std::string(stageName(stage)) +
                            "\":{\"count\":"),
                  std::string::npos);
    }
    EXPECT_NE(json.find("\"sessions\":{"), std::string::npos);

    const LatencySnapshot after = server.latencySnapshot();
#if ST_OBS_ENABLED
    // Every delivered volley is decomposed exactly once, and the
    // estimator must be monotone in q for every stage.
    for (size_t stage = 0; stage < kStageCount; ++stage) {
        const obs::MetricsSnapshot::Hist run =
            after.stages[stage].since(before.stages[stage]);
        EXPECT_EQ(run.count, delivered) << stageName(stage);
        EXPECT_LE(run.percentile(0.50), run.percentile(0.99))
            << stageName(stage);
    }
    // Per-session detail rides in the health JSON for the top-K.
    EXPECT_NE(json.find("\"volleys\":100"), std::string::npos);
#else
    for (size_t stage = 0; stage < kStageCount; ++stage)
        EXPECT_EQ(after.stages[stage].count, 0u) << stageName(stage);
#endif
    open.session->endInput(steadyNowMs());
    server.requestStop();
    EXPECT_TRUE(server.waitDrained());
}

TEST(StreamServer, LatencyIsRecordedBeforeItsLineIsVisible)
{
    ServeConfig config;
    config.window = 8;
    config.deadlineMs = 60000;
    StreamServer server(std::make_unique<TnnServeModel>(makeNet(4)),
                        config);
    server.start();
    const LatencySnapshot before = server.latencySnapshot();
    auto open = server.openSession("order");
    ASSERT_TRUE(open.session != nullptr);
    Session &s = *open.session;
    constexpr uint64_t kVolleys = 64;
    s.feedLine("stserve 1", steadyNowMs());
    s.feedLine("addresses 4 window 8", steadyNowMs());
    for (uint64_t w = 0; w < kVolleys; ++w) {
        s.feedLine(std::to_string(w * 8) + " " + std::to_string(w % 4),
                   steadyNowMs());
        s.feedLine("flush", steadyNowMs());
    }
    constexpr size_t kTotal = kStageCount - 1; // the "total" stage
    uint64_t seen = 0;
    while (seen < kVolleys) {
        const std::optional<std::string> line =
            s.nextOutput(std::chrono::milliseconds(1000));
        if (!line)
            break;
        if (line->rfind("volley ", 0) != 0)
            continue;
        ++seen;
        // Later volleys may already be in; this one must be.
        const uint64_t in_session =
            s.latencySnapshot().stages[kTotal].count;
        const uint64_t in_registry =
            server.latencySnapshot().stages[kTotal].count -
            before.stages[kTotal].count;
#if ST_OBS_ENABLED
        EXPECT_GE(in_session, seen) << *line;
        EXPECT_GE(in_registry, seen) << *line;
#else
        EXPECT_EQ(in_session, 0u) << *line;
        EXPECT_EQ(in_registry, 0u) << *line;
#endif
    }
    EXPECT_EQ(seen, kVolleys);
    s.endInput(steadyNowMs());
    server.requestStop();
    EXPECT_TRUE(server.waitDrained());
}

TEST(StreamServer, HealthTopKBoundsPerSessionDetail)
{
    ServeConfig config;
    config.window = 8;
    config.deadlineMs = 60000;
    config.healthTopK = 1; // keep only the busiest session's detail
    config.maxSessions = 4;
    StreamServer server(std::make_unique<TnnServeModel>(makeNet(4)),
                        config);
    server.start();
    auto busy = server.openSession("busy");
    auto idle = server.openSession("idle");
    ASSERT_TRUE(busy.session && idle.session);
    const uint64_t busyId = busy.session->id();
    const uint64_t idleId = idle.session->id();
    EXPECT_EQ(driveWithoutEnd(*busy.session, 8, 8), 8u);
    const std::string json = server.healthJson();
    const size_t latPos = json.find("\"latency\":");
    const size_t metricsPos = json.find("\"metrics\":");
    ASSERT_NE(latPos, std::string::npos);
    ASSERT_NE(metricsPos, std::string::npos);
    const std::string lat = json.substr(latPos, metricsPos - latPos);
    EXPECT_NE(lat.find("\"" + std::to_string(busyId) + "\":{"),
              std::string::npos);
    EXPECT_EQ(lat.find("\"" + std::to_string(idleId) + "\":{"),
              std::string::npos);
    busy.session->endInput(steadyNowMs());
    idle.session->endInput(steadyNowMs());
    server.requestStop();
    server.waitDrained();
}

TEST(StreamServer, FarApartEventsAnswerAtTheClosedFormTime)
{
    // One neuron, two step synapses at the top level (7 each): theta
    // 10 needs both spikes, so the neuron fires on the second one,
    // 2^61 ticks after the first. The batcher must answer at once —
    // the model's cost may not grow with the time between spikes.
    ColumnParams p;
    p.numInputs = 2;
    p.numNeurons = 1;
    p.threshold = 10;
    p.maxWeight = 7;
    TnnNetwork net;
    net.addLayer(Column(p, {{1.0, 1.0}}));
    StreamServer server(std::make_unique<TnnServeModel>(net), ServeConfig{});
    server.start();
    auto open = server.openSession("far");
    ASSERT_TRUE(open.session != nullptr);
    Session &s = *open.session;
    s.feedLine("stserve 1", steadyNowMs());
    s.feedLine("addresses 2 window 4611686018427387904", steadyNowMs());
    s.feedLine("5 0", steadyNowMs());
    s.feedLine("2305843009213693957 1", steadyNowMs()); // 5 + 2^61
    s.feedLine("end", steadyNowMs());

    const std::vector<std::string> lines = drainAll(s);
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[0].rfind("stserve-ok ", 0), 0u) << lines[0];
    EXPECT_EQ(lines[1], "volley 0 2305843009213693957");
    EXPECT_EQ(lines[2], "end volleys 1 drops 0");
    server.requestStop();
    EXPECT_TRUE(server.waitDrained());
}

// --- housekeeping and the work-driven batcher ------------------------

/**
 * Holds every batch until the test opens the gate (or 10 s pass, so a
 * failing test ends instead of hanging), then echoes the volleys.
 */
class GateModel : public ServeModel
{
  public:
    size_t numInputs() const override { return 2; }
    std::string name() const override { return "gate"; }
    bool transactional() const override { return true; }

    std::vector<std::string>
    processBatch(std::span<const BatchItem> items, size_t) override
    {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            held_ = true;
            cv_.notify_all();
            cv_.wait_for(lock, std::chrono::seconds(10),
                         [this] { return open_; });
        }
        std::vector<std::string> out;
        for (const BatchItem &item : items)
            out.push_back(wireVolley(item.volley));
        return out;
    }

    /** Block until a batch is held at the gate. */
    void
    awaitHeld()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return held_; });
    }

    void
    open()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            open_ = true;
        }
        cv_.notify_all();
    }

  private:
    std::mutex mutex_;
    std::condition_variable cv_;
    bool held_ = false;
    bool open_ = false;
};

/** Handshake @p s and queue one volley, "inf 3", for the model. */
void
sendOneVolley(Session &s)
{
    s.feedLine("stserve 1", steadyNowMs());
    s.feedLine("addresses 2 window 8", steadyNowMs());
    s.feedLine("3 1", steadyNowMs());
    s.feedLine("flush", steadyNowMs());
}

TEST(StreamServer, SilentSessionIsIdleReaped)
{
    ServeConfig config;
    config.idleTimeoutMs = 10;
    StreamServer server(std::make_unique<TnnServeModel>(makeNet(4)),
                        config);
    server.start();
    const uint64_t reaped = counterValue("serve.sessions.idle_reaped");
    auto open = server.openSession("silent");
    ASSERT_TRUE(open.session != nullptr);
    // Not one line sent: admission alone starts the idle clock, so a
    // silent peer cannot hold a session slot until shutdown.
    EXPECT_EQ(nextLine(*open.session), "err data_loss: idle timeout");
#if ST_OBS_ENABLED
    EXPECT_EQ(counterValue("serve.sessions.idle_reaped"), reaped + 1);
#else
    (void)reaped;
#endif
    EXPECT_TRUE(eventually([&] { return server.activeSessions() == 0; }));
    EXPECT_TRUE(server.waitDrained());
}

TEST(StreamServer, WatchdogFlipsReadinessWhileABatchIsHeld)
{
    ServeConfig config;
    config.deadlineMs = 60000;
    config.watchdogStallMs = 1;
    auto model = std::make_unique<GateModel>();
    GateModel &gate = *model;
    StreamServer server(std::move(model), config);
    server.start();
    const uint64_t stalls = counterValue("serve.watchdog.stalls");
    auto open = server.openSession("w");
    ASSERT_TRUE(open.session != nullptr);
    Session &s = *open.session;
    sendOneVolley(s);
    gate.awaitHeld();

    // A housekeeping tick finds the batch in flight past 1 ms.
    EXPECT_TRUE(eventually([&] { return !server.ready(); }));
#if ST_OBS_ENABLED
    EXPECT_TRUE(eventually([&] {
        return counterValue("serve.watchdog.stalls") == stalls + 1;
    }));
#else
    (void)stalls;
#endif
    EXPECT_NE(server.healthJson().find("\"watchdog_tripped\":true"),
              std::string::npos);

    gate.open();
    EXPECT_EQ(nextLine(s).rfind("stserve-ok ", 0), 0u);
    EXPECT_EQ(nextLine(s), "volley 0 inf 3");
    EXPECT_TRUE(eventually([&] { return server.ready(); }));
#if ST_OBS_ENABLED
    EXPECT_EQ(counterValue("serve.watchdog.stalls"), stalls + 1);
#endif
    s.endInput(steadyNowMs());
    EXPECT_TRUE(server.waitDrained());
}

TEST(StreamServer, DrainDeadlineForceClosesAHeldBatch)
{
    ServeConfig config;
    config.deadlineMs = 60000;
    config.drainDeadlineMs = 50;
    auto model = std::make_unique<GateModel>();
    GateModel &gate = *model;
    StreamServer server(std::move(model), config);
    server.start();
    const uint64_t forced = counterValue("serve.drain.forced");
    auto open = server.openSession("held");
    ASSERT_TRUE(open.session != nullptr);
    Session &s = *open.session;
    sendOneVolley(s);
    gate.awaitHeld();

    bool clean = true;
    std::thread drainer([&] { clean = server.waitDrained(); });
    EXPECT_EQ(nextLine(s).rfind("stserve-ok ", 0), 0u);
    // The held volley never answers: the deadline closes the session.
    EXPECT_EQ(nextLine(s), "err data_loss: drain deadline exceeded");
    gate.open();
    drainer.join();
    EXPECT_FALSE(clean);
    EXPECT_EQ(server.activeSessions(), 0u);
#if ST_OBS_ENABLED
    EXPECT_EQ(counterValue("serve.drain.forced"), forced + 1);
#else
    (void)forced;
#endif
}

TEST(StreamServer, FullBatchesDoNotWaitForATimer)
{
    // batchMax 1: every gather fills its batch. The batcher must
    // gather again at once, not after a timed wait per volley. The
    // wall-clock bound is wide: a 20 ms wait per volley takes 4 s.
    ServeConfig config;
    config.window = 8;
    config.deadlineMs = 60000;
    config.batchMax = 1;
    config.ingressCapacity = 256;
    StreamServer server(std::make_unique<TnnServeModel>(makeNet(4)),
                        config);
    auto open = server.openSession("queued");
    ASSERT_TRUE(open.session != nullptr);
    Session &s = *open.session;
    s.feedLine("stserve 1", steadyNowMs());
    s.feedLine("addresses 4", steadyNowMs());
    for (uint64_t w = 0; w < 200; ++w) {
        s.feedLine(std::to_string(w * 8) + " " + std::to_string(w % 4),
                   steadyNowMs());
        s.feedLine("flush", steadyNowMs());
    }
    s.feedLine("end", steadyNowMs());
    ASSERT_EQ(s.ingressDepth(), 200u);

    const auto t0 = std::chrono::steady_clock::now();
    server.start();
    const std::vector<std::string> lines = drainAll(s);
    const auto took = std::chrono::steady_clock::now() - t0;
    EXPECT_EQ(countPrefix(lines, "volley "), 200u);
    EXPECT_EQ(lines.back(), "end volleys 200 drops 0");
    EXPECT_LT(took, std::chrono::seconds(1));
    EXPECT_TRUE(server.waitDrained());
}

TEST(WireVolley, EncodesInfAndFiniteTimes)
{
    Volley v = {Time(0), INF, Time(3)};
    EXPECT_EQ(wireVolley(v), "0 inf 3");
    EXPECT_EQ(wireVolley(Volley{}), "");
    EXPECT_EQ(wireVolley(Volley{Time(18446744073709551614ull)}),
              "18446744073709551614");
    EXPECT_EQ(wireVolley(Volley{INF}), "inf");

    // A 16-wide mixed volley reads exactly as the streamed form.
    Volley wide;
    for (uint64_t i = 0; i < 16; ++i)
        wide.push_back(i % 3 == 1 ? INF : Time(i * 0x9e3779b97f4a7c1ull));
    std::ostringstream os;
    for (size_t i = 0; i < wide.size(); ++i)
        os << (i ? " " : "") << wide[i];
    EXPECT_EQ(wireVolley(wide), os.str());
}

} // namespace
} // namespace st::serve
