/**
 * @file
 * Tests for the observability layer: the lock-free metrics registry
 * (counters, gauges, power-of-two histograms, snapshot aggregation)
 * and the scoped-span trace session's Chrome trace-event export.
 *
 * Thread-count sweeps use fresh std::threads rather than the shared
 * pool: a local test registry must outlive every thread that recorded
 * into it, and joining the recorders before the registry dies is the
 * contract under test.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace st::obs {
namespace {

TEST(MetricsCounter, AccumulatesSingleThread)
{
    MetricsRegistry reg;
    Counter &c = reg.counter("events");
    c.add();
    c.add(7);
    c += 2;
    MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 1u);
    EXPECT_EQ(snap.counters[0].name, "events");
    EXPECT_EQ(snap.counters[0].value, 10u);
}

TEST(MetricsCounter, SameNameSameHandle)
{
    MetricsRegistry reg;
    EXPECT_EQ(&reg.counter("x"), &reg.counter("x"));
    EXPECT_NE(&reg.counter("x"), &reg.counter("y"));
    EXPECT_EQ(&reg.gauge("g"), &reg.gauge("g"));
    EXPECT_EQ(&reg.histogram("h"), &reg.histogram("h"));
    EXPECT_EQ(reg.metricCount(), 4u);
}

TEST(MetricsCounter, KindMismatchThrows)
{
    MetricsRegistry reg;
    reg.counter("m");
    EXPECT_THROW(reg.gauge("m"), std::invalid_argument);
    EXPECT_THROW(reg.histogram("m"), std::invalid_argument);
    reg.histogram("h");
    EXPECT_THROW(reg.counter("h"), std::invalid_argument);
}

TEST(MetricsCounter, ExactUnderConcurrency)
{
    // TSan-relevant: concurrent add() from N threads plus a snapshot
    // reader must be race-free and lose no counts once joined.
    for (size_t nthreads : {1u, 2u, 4u, 8u}) {
        MetricsRegistry reg;
        Counter &c = reg.counter("hits");
        constexpr uint64_t kAdds = 20000;
        std::vector<std::thread> workers;
        for (size_t t = 0; t < nthreads; ++t) {
            workers.emplace_back([&c] {
                for (uint64_t i = 0; i < kAdds; ++i)
                    c.add();
            });
        }
        // Reader racing the writers: totals must only grow.
        uint64_t mid = reg.snapshot().counters[0].value;
        EXPECT_LE(mid, nthreads * kAdds);
        for (std::thread &w : workers)
            w.join();
        EXPECT_EQ(reg.snapshot().counters[0].value, nthreads * kAdds);
    }
}

TEST(MetricsGauge, SetAndSetMax)
{
    MetricsRegistry reg;
    Gauge &g = reg.gauge("depth");
    g.set(5);
    EXPECT_EQ(g.value(), 5u);
    g.setMax(3); // lower: no change
    EXPECT_EQ(g.value(), 5u);
    g.setMax(9);
    EXPECT_EQ(g.value(), 9u);
    g.set(2); // set overwrites unconditionally
    MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.gauges.size(), 1u);
    EXPECT_EQ(snap.gauges[0].value, 2u);
}

TEST(MetricsHistogram, PowerOfTwoBuckets)
{
    EXPECT_EQ(Histogram::bucketOf(0), 0u);
    EXPECT_EQ(Histogram::bucketOf(1), 1u);
    EXPECT_EQ(Histogram::bucketOf(2), 2u);
    EXPECT_EQ(Histogram::bucketOf(3), 2u);
    EXPECT_EQ(Histogram::bucketOf(4), 3u);
    EXPECT_EQ(Histogram::bucketOf(uint64_t{1} << 20), 21u);
    EXPECT_EQ(Histogram::bucketOf(~uint64_t{0}), 64u);

    MetricsRegistry reg;
    Histogram &h = reg.histogram("sizes");
    for (uint64_t v : {0u, 1u, 2u, 3u, 8u})
        h.record(v);
    MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.histograms.size(), 1u);
    const MetricsSnapshot::Hist &hist = snap.histograms[0];
    EXPECT_EQ(hist.count, 5u);
    EXPECT_EQ(hist.sum, 14u);
    // The writers trim trailing zero buckets: the last hit bucket is
    // 4 (value 8).
    EXPECT_NE(snap.toJson().find("\"buckets\": [1, 1, 2, 0, 1]}"),
              std::string::npos);
    EXPECT_EQ(hist.buckets[0], 1u); // v = 0
    EXPECT_EQ(hist.buckets[1], 1u); // v = 1
    EXPECT_EQ(hist.buckets[2], 2u); // v = 2, 3
    EXPECT_EQ(hist.buckets[3], 0u);
    EXPECT_EQ(hist.buckets[4], 1u); // v = 8
}

TEST(MetricsHistogram, ExactUnderConcurrency)
{
    for (size_t nthreads : {2u, 4u, 8u}) {
        MetricsRegistry reg;
        Histogram &h = reg.histogram("volley");
        constexpr uint64_t kEach = 1000;
        std::vector<std::thread> workers;
        for (size_t t = 0; t < nthreads; ++t) {
            workers.emplace_back([&h] {
                for (uint64_t v = 0; v < kEach; ++v)
                    h.record(v);
            });
        }
        for (std::thread &w : workers)
            w.join();
        MetricsSnapshot snap = reg.snapshot();
        ASSERT_EQ(snap.histograms.size(), 1u);
        EXPECT_EQ(snap.histograms[0].count, nthreads * kEach);
        EXPECT_EQ(snap.histograms[0].sum,
                  nthreads * (kEach * (kEach - 1) / 2));
    }
}

TEST(MetricsSnapshot, DeterministicAndOrdered)
{
    MetricsRegistry reg;
    reg.counter("b").add(2);
    reg.counter("a").add(1);
    reg.gauge("g").set(3);
    reg.histogram("h").record(4);
    MetricsSnapshot one = reg.snapshot();
    MetricsSnapshot two = reg.snapshot();
    // Registration order, not name order.
    ASSERT_EQ(one.counters.size(), 2u);
    EXPECT_EQ(one.counters[0].name, "b");
    EXPECT_EQ(one.counters[1].name, "a");
    // Quiesced writers: snapshots are identical.
    EXPECT_EQ(one.toJson(), two.toJson());
}

TEST(MetricsSnapshot, JsonShape)
{
    MetricsRegistry reg;
    reg.counter("runs").add(3);
    reg.gauge("depth").set(7);
    reg.histogram("ring").record(2);
    std::string json = reg.snapshot().toJson();
    // Counters and gauges live in their own sub-objects, not flat
    // next to "histograms".
    EXPECT_NE(json.find("\"counters\": {\"runs\": 3}"),
              std::string::npos);
    EXPECT_NE(json.find("\"gauges\": {\"depth\": 7}"),
              std::string::npos);
    EXPECT_NE(json.find("\"histograms\": {\"ring\""), std::string::npos);
    EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
}

TEST(MetricsSnapshot, ReservedNamesCannotShadowStructuralKeys)
{
    // A metric named like a structural key serializes inside its own
    // sub-object, so the top-level object never has duplicate keys.
    MetricsRegistry reg;
    reg.counter("histograms").add(1);
    reg.gauge("counters").set(2);
    reg.histogram("gauges").record(3);
    std::string json = reg.snapshot().toJson();
    EXPECT_NE(json.find("\"counters\": {\"histograms\": 1}"),
              std::string::npos);
    EXPECT_NE(json.find("\"gauges\": {\"counters\": 2}"),
              std::string::npos);
    EXPECT_NE(json.find("\"histograms\": {\"gauges\""),
              std::string::npos);
}

TEST(MetricsRegistry, ConcurrentRegistrationIsRaceFree)
{
    // Regression for the handle-resolution race: counter() must
    // resolve its object pointer while the registry mutex is held,
    // because a concurrent registration reallocates the metric table
    // and mutates the handle deques. This mirrors pool startup, where
    // every worker registers its own "pool.workerN.busy_ns" counter
    // at the same moment.
    for (size_t nthreads : {2u, 4u, 8u}) {
        MetricsRegistry reg;
        constexpr uint64_t kAdds = 1000;
        std::vector<std::thread> workers;
        for (size_t t = 0; t < nthreads; ++t) {
            workers.emplace_back([&reg, t] {
                Counter &own = reg.counter(
                    "worker" + std::to_string(t) + ".busy");
                Counter &shared = reg.counter("shared.hits");
                for (uint64_t i = 0; i < kAdds; ++i) {
                    own.add();
                    shared.add();
                }
            });
        }
        for (std::thread &w : workers)
            w.join();
        MetricsSnapshot snap = reg.snapshot();
        ASSERT_EQ(snap.counters.size(), nthreads + 1);
        uint64_t shared_total = 0, own_total = 0;
        for (const auto &c : snap.counters) {
            if (c.name == "shared.hits")
                shared_total = c.value;
            else
                own_total += c.value;
        }
        EXPECT_EQ(shared_total, nthreads * kAdds);
        EXPECT_EQ(own_total, nthreads * kAdds);
    }
}

TEST(MetricsRegistry, SlotBudgetExhaustionThrows)
{
    MetricsRegistry reg;
    // Histograms burn 66 slots each; 1024 / 66 = 15 fit.
    for (int i = 0; i < 15; ++i)
        reg.histogram("h" + std::to_string(i));
    EXPECT_THROW(reg.histogram("one-too-many"), std::length_error);
    // The budget error must not corrupt the registry: existing
    // metrics still work and re-registration still resolves.
    reg.histogram("h0").record(1);
    EXPECT_EQ(reg.snapshot().histograms[0].count, 1u);
}

#if ST_OBS_ENABLED
TEST(ObsMacros, RecordIntoGlobalRegistry)
{
    ST_OBS_ADD("test.obs.macro_counter", 2);
    ST_OBS_HIST("test.obs.macro_hist", 5);
    ST_OBS_GAUGE_MAX("test.obs.macro_gauge", 11);
    MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
    uint64_t counter = 0, gauge = 0, hist_count = 0;
    for (const auto &c : snap.counters) {
        if (c.name == "test.obs.macro_counter")
            counter = c.value;
    }
    for (const auto &g : snap.gauges) {
        if (g.name == "test.obs.macro_gauge")
            gauge = g.value;
    }
    for (const auto &h : snap.histograms) {
        if (h.name == "test.obs.macro_hist")
            hist_count = h.count;
    }
    EXPECT_GE(counter, 2u);
    EXPECT_GE(gauge, 11u);
    EXPECT_GE(hist_count, 1u);
}
#endif

/** Structural JSON scan: brace/bracket balance outside strings. */
bool
balancedJson(const std::string &s)
{
    int depth = 0;
    bool in_string = false;
    for (size_t i = 0; i < s.size(); ++i) {
        char c = s[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"')
            in_string = true;
        else if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']') {
            if (--depth < 0)
                return false;
        }
    }
    return depth == 0 && !in_string;
}

/** Extract the integer following @p key in one serialized event. */
int64_t
fieldOf(const std::string &line, const std::string &key)
{
    size_t at = line.find(key);
    EXPECT_NE(at, std::string::npos) << key << " in " << line;
    if (at == std::string::npos)
        return -1;
    at += key.size();
    int64_t v = 0;
    while (at < line.size() &&
           std::isdigit(static_cast<unsigned char>(line[at]))) {
        v = v * 10 + (line[at] - '0');
        ++at;
    }
    return v;
}

TEST(TraceSession, GoldenChromeTraceExport)
{
    TraceSession &session = TraceSession::instance();
    const bool was_enabled = session.enabled();
    session.clear();
    session.enable();

    // Spans on the main thread and on two workers (distinct tracks).
    for (int i = 0; i < 8; ++i) {
        ScopedSpan span("unit.main");
    }
    std::vector<std::thread> workers;
    for (int t = 0; t < 2; ++t) {
        workers.emplace_back([] {
            for (int i = 0; i < 4; ++i) {
                ScopedSpan span("unit.worker");
            }
        });
    }
    for (std::thread &w : workers)
        w.join();
    session.disable();
    EXPECT_GE(session.eventCount(), 16u);
    EXPECT_EQ(session.droppedEvents(), 0u);

    std::ostringstream out;
    session.writeJson(out);
    const std::string json = out.str();
    EXPECT_TRUE(balancedJson(json));
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"unit.main\""), std::string::npos);
    EXPECT_NE(json.find("\"unit.worker\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);

    // Per-tid monotone "ts" and positive "dur" on every "X" event.
    std::map<int64_t, int64_t> last_ts;
    std::map<int64_t, size_t> per_tid;
    std::istringstream lines(json);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.find("\"ph\": \"X\"") == std::string::npos)
            continue;
        int64_t tid = fieldOf(line, "\"tid\": ");
        int64_t ts = fieldOf(line, "\"ts\": ");
        int64_t dur = fieldOf(line, "\"dur\": ");
        EXPECT_GE(dur, 1);
        auto prev = last_ts.find(tid);
        if (prev != last_ts.end()) {
            EXPECT_GE(ts, prev->second)
                << "ts not monotone on tid " << tid;
        }
        last_ts[tid] = ts;
        ++per_tid[tid];
    }
    // Main track + two worker tracks (other tests may add more).
    EXPECT_GE(per_tid.size(), 3u);

    session.clear();
    if (was_enabled)
        session.enable();
}

TEST(TraceSession, RingDropsOldestPastCapacity)
{
    TraceSession &session = TraceSession::instance();
    const bool was_enabled = session.enabled();
    session.clear();
    session.enable();
    const size_t extra = 10;
    std::thread filler([&] {
        for (size_t i = 0; i < TraceSession::kRingCap + extra; ++i) {
            ScopedSpan span("unit.fill");
        }
    });
    filler.join();
    session.disable();
    EXPECT_EQ(session.droppedEvents(), extra);
    session.clear();
    if (was_enabled)
        session.enable();
}

TEST(TraceSession, DisabledSpansCostNothing)
{
    TraceSession &session = TraceSession::instance();
    const bool was_enabled = session.enabled();
    session.disable();
    session.clear();
    {
        ScopedSpan span("unit.off");
    }
    EXPECT_EQ(session.eventCount(), 0u);
    if (was_enabled)
        session.enable();
}

} // namespace
} // namespace st::obs
