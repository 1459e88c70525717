/**
 * @file
 * Tests for the request-observability additions (DESIGN.md Sec. 13):
 * histogram percentile estimation, the Prometheus text exposition
 * renderer, the background snapshot exporter's atomic file contract,
 * the rate-limited structured logger, the flight recorder's dump
 * shape and retention, and publishFile, the atomic write the exporter
 * and the flight recorder share (concurrent dumps, unwritable paths).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace st::obs {
namespace {

// --- percentile estimation -----------------------------------------

TEST(BucketQuantile, UniformDistribution)
{
    // 1024 samples 0..1023: exact mass in every bucket up to 10, so
    // the log-linear interpolation is checkable in closed form.
    MetricsRegistry reg;
    Histogram &h = reg.histogram("u");
    for (uint64_t v = 0; v < 1024; ++v)
        h.record(v);
    const MetricsSnapshot full = reg.snapshot();
    const MetricsSnapshot::Hist &snap = full.histograms[0];
    ASSERT_EQ(snap.count, 1024u);
    // rank(0.5) = 512 = cumulative mass through buckets 0..9 exactly,
    // so p50 sits at the top of bucket 9: 256 + 1*(512-256) = 512.
    EXPECT_DOUBLE_EQ(snap.percentile(0.50), 512.0);
    // rank(0.9) = 921.6 -> bucket 10 ([512,1024), 512 samples),
    // fraction (921.6-512)/512 -> 512 + 0.8*512 = 921.6.
    EXPECT_NEAR(snap.percentile(0.90), 921.6, 1e-9);
    EXPECT_NEAR(snap.percentile(0.99), 1013.76, 1e-9);
    // Monotone in q.
    EXPECT_LE(snap.percentile(0.50), snap.percentile(0.90));
    EXPECT_LE(snap.percentile(0.90), snap.percentile(0.99));
    EXPECT_LE(snap.percentile(0.99), snap.percentile(0.999));
}

TEST(BucketQuantile, ExponentialishMassAcrossBuckets)
{
    // Heavily skewed mass: 900 fast, 90 medium, 10 slow — the shape
    // of a latency distribution. The tail quantiles must land in the
    // (sparse) slow buckets, not be dragged down by the median mass.
    MetricsRegistry reg;
    Histogram &h = reg.histogram("lat");
    for (int i = 0; i < 900; ++i)
        h.record(10); // bucket 4: [8,16)
    for (int i = 0; i < 90; ++i)
        h.record(100); // bucket 7: [64,128)
    for (int i = 0; i < 10; ++i)
        h.record(1000); // bucket 10: [512,1024)
    const MetricsSnapshot full = reg.snapshot();
    const MetricsSnapshot::Hist &snap = full.histograms[0];
    ASSERT_EQ(snap.count, 1000u);
    // rank(0.5) = 500 inside bucket 4: 8 + (500/900)*8.
    EXPECT_NEAR(snap.percentile(0.50), 8.0 + 8.0 * 500.0 / 900.0,
                1e-9);
    // rank(0.9) = 900: exactly the last sample of bucket 4.
    EXPECT_DOUBLE_EQ(snap.percentile(0.90), 16.0);
    // rank(0.99) = 990: exactly the last sample of bucket 7.
    EXPECT_DOUBLE_EQ(snap.percentile(0.99), 128.0);
    // rank(0.999) = 999 inside bucket 10: 512 + (9/10)*512.
    EXPECT_NEAR(snap.percentile(0.999), 972.8, 1e-9);
}

TEST(BucketQuantile, EdgeCases)
{
    const std::vector<uint64_t> empty;
    EXPECT_DOUBLE_EQ(bucketQuantile(empty, 0.5), 0.0);

    // All mass on v == 0 (bucket 0): every quantile is 0.
    const std::vector<uint64_t> zeros = {42};
    EXPECT_DOUBLE_EQ(bucketQuantile(zeros, 0.99), 0.0);

    // Single sample: every quantile interpolates inside its bucket.
    MetricsRegistry reg;
    Histogram &h = reg.histogram("one");
    h.record(5); // bucket 3: [4,8)
    const MetricsSnapshot full = reg.snapshot();
    const MetricsSnapshot::Hist &snap = full.histograms[0];
    const double p50 = snap.percentile(0.50);
    EXPECT_GE(p50, 4.0);
    EXPECT_LE(p50, 8.0);
    EXPECT_DOUBLE_EQ(snap.percentile(0.0), snap.percentile(0.01));

    // q outside [0,1] clamps instead of misbehaving.
    const std::vector<uint64_t> some = {0, 3};
    EXPECT_GE(bucketQuantile(some, 2.0), bucketQuantile(some, 1.0));
    EXPECT_DOUBLE_EQ(bucketQuantile(some, -1.0),
                     bucketQuantile(some, 0.0));
}

TEST(MetricsSnapshot, JsonCarriesPercentiles)
{
    MetricsRegistry reg;
    reg.histogram("h").record(100);
    const std::string json = reg.snapshot().toJson();
    EXPECT_NE(json.find("\"p50\": "), std::string::npos);
    EXPECT_NE(json.find("\"p999\": "), std::string::npos);
}

// --- Prometheus exposition -----------------------------------------

/** Parse "name{labels} value" / "name value" prom sample lines. */
std::map<std::string, std::vector<std::pair<std::string, double>>>
parseProm(const std::string &text)
{
    std::map<std::string, std::vector<std::pair<std::string, double>>>
        series;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const size_t sp = line.rfind(' ');
        EXPECT_NE(sp, std::string::npos) << line;
        std::string key = line.substr(0, sp);
        const double value = std::stod(line.substr(sp + 1));
        std::string labels;
        const size_t brace = key.find('{');
        if (brace != std::string::npos) {
            labels = key.substr(brace);
            key = key.substr(0, brace);
        }
        series[key].emplace_back(labels, value);
    }
    return series;
}

TEST(PromExposition, GoldenSmallRegistry)
{
    MetricsRegistry reg;
    reg.counter("serve.volleys.in").add(5);
    reg.gauge("serve.sessions.active").set(2);
    Histogram &h = reg.histogram("serve.latency.total_us");
    h.record(0);
    h.record(3); // bucket 2
    h.record(3);
    h.record(9); // bucket 4

    const std::string prom = reg.snapshot().toProm();

    // Name mangling: dots become underscores, counters get _total.
    EXPECT_NE(prom.find("st_serve_volleys_in_total 5\n"),
              std::string::npos);
    EXPECT_NE(prom.find("st_serve_sessions_active 2\n"),
              std::string::npos);

    // HELP/TYPE lines precede each family and name the original.
    EXPECT_NE(prom.find("# HELP st_serve_volleys_in_total counter "
                        "serve.volleys.in\n"),
              std::string::npos);
    EXPECT_NE(prom.find("# TYPE st_serve_volleys_in_total counter\n"),
              std::string::npos);
    EXPECT_NE(
        prom.find("# TYPE st_serve_latency_total_us histogram\n"),
        std::string::npos);

    // Histogram buckets are cumulative with an exact +Inf == count.
    EXPECT_NE(
        prom.find("st_serve_latency_total_us_bucket{le=\"0\"} 1\n"),
        std::string::npos);
    EXPECT_NE(
        prom.find("st_serve_latency_total_us_bucket{le=\"3\"} 3\n"),
        std::string::npos);
    EXPECT_NE(
        prom.find("st_serve_latency_total_us_bucket{le=\"15\"} 4\n"),
        std::string::npos);
    EXPECT_NE(prom.find(
                  "st_serve_latency_total_us_bucket{le=\"+Inf\"} 4\n"),
              std::string::npos);
    EXPECT_NE(prom.find("st_serve_latency_total_us_sum 15\n"),
              std::string::npos);
    EXPECT_NE(prom.find("st_serve_latency_total_us_count 4\n"),
              std::string::npos);
    // Percentile companion gauges ride along.
    EXPECT_NE(prom.find("st_serve_latency_total_us_p50 "),
              std::string::npos);
    EXPECT_NE(prom.find("st_serve_latency_total_us_p999 "),
              std::string::npos);
}

TEST(PromExposition, BucketsAreCumulativeNondecreasing)
{
    MetricsRegistry reg;
    Histogram &h = reg.histogram("spread");
    for (uint64_t v = 1; v < 4096; v *= 2)
        h.record(v);
    const auto series = parseProm(reg.snapshot().toProm());
    const auto it = series.find("st_spread_bucket");
    ASSERT_NE(it, series.end());
    double prev = -1.0;
    double last = 0.0;
    for (const auto &[labels, value] : it->second) {
        EXPECT_GE(value, prev) << labels;
        prev = value;
        last = value;
    }
    const auto count = series.find("st_spread_count");
    ASSERT_NE(count, series.end());
    EXPECT_DOUBLE_EQ(last, count->second[0].second);
}

TEST(PromExposition, MangleIsPromLegal)
{
    EXPECT_EQ(detail::promMangle("serve.latency.total_us"),
              "st_serve_latency_total_us");
    EXPECT_EQ(detail::promMangle("weird-name+x"), "st_weird_name_x");
    EXPECT_EQ(detail::promMangle("0starts.with.digit"),
              "st_0starts_with_digit");
}

// --- exporter ------------------------------------------------------

TEST(MetricsExporter, WriteOnceIsAtomicAndParseable)
{
    const std::string path =
        ::testing::TempDir() + "obs_export_test.prom";
    std::remove(path.c_str());
    MetricsRegistry::instance().counter("export_test.ticks").add(3);
    MetricsExporter exporter(path, 1000);
    ASSERT_TRUE(exporter.writeOnce());
    // The tmp staging file must not survive the rename.
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good());
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::ostringstream os;
    os << in.rdbuf();
    EXPECT_NE(os.str().find("st_export_test_ticks_total"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(MetricsExporter, BackgroundLoopPublishesAndStops)
{
    const std::string path =
        ::testing::TempDir() + "obs_export_loop.prom";
    std::remove(path.c_str());
    {
        MetricsExporter exporter(path, 10);
        exporter.start();
        exporter.stop(); // stop() publishes a final snapshot
    }
    std::ifstream in(path);
    EXPECT_TRUE(in.good());
    std::remove(path.c_str());
}

TEST(MetricsExporter, FromEnvParsesPathAndInterval)
{
    setenv("ST_METRICS_EXPORT", "/tmp/m.prom,250", 1);
    auto e = MetricsExporter::fromEnv();
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->path(), "/tmp/m.prom");
    EXPECT_EQ(e->intervalMs(), 250u);

    // No interval suffix: the default rides.
    setenv("ST_METRICS_EXPORT", "/tmp/m.prom", 1);
    e = MetricsExporter::fromEnv();
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->path(), "/tmp/m.prom");
    EXPECT_EQ(e->intervalMs(), MetricsExporter::kDefaultIntervalMs);

    // A non-numeric suffix is part of the path, not an interval.
    setenv("ST_METRICS_EXPORT", "/tmp/weird,name.prom", 1);
    e = MetricsExporter::fromEnv();
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->path(), "/tmp/weird,name.prom");

    // Sub-floor intervals clamp instead of spinning.
    setenv("ST_METRICS_EXPORT", "/tmp/m.prom,1", 1);
    e = MetricsExporter::fromEnv();
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->intervalMs(), MetricsExporter::kMinIntervalMs);

    setenv("ST_METRICS_EXPORT", "", 1);
    EXPECT_EQ(MetricsExporter::fromEnv(), nullptr);
    unsetenv("ST_METRICS_EXPORT");
    EXPECT_EQ(MetricsExporter::fromEnv(), nullptr);
}

// --- structured logging --------------------------------------------

/** Capture everything logged during the test body into a string. */
class LogCapture
{
  public:
    LogCapture()
    {
        [[maybe_unused]] int rc = pipe(fds_);
        setLogFd(fds_[1]);
        savedThreshold_ = logThreshold();
    }

    ~LogCapture()
    {
        setLogFd(STDERR_FILENO);
        setLogThreshold(savedThreshold_);
        close(fds_[0]);
        close(fds_[1]);
    }

    std::string
    drain()
    {
        close(fds_[1]); // EOF so the read loop terminates
        fds_[1] = open("/dev/null", O_WRONLY);
        setLogFd(STDERR_FILENO);
        std::string out;
        char buf[4096];
        ssize_t n;
        while ((n = read(fds_[0], buf, sizeof(buf))) > 0)
            out.append(buf, static_cast<size_t>(n));
        return out;
    }

  private:
    int fds_[2] = {-1, -1};
    LogLevel savedThreshold_ = LogLevel::Info;
};

TEST(StructuredLog, LineShapeAndEscaping)
{
    LogCapture cap;
    setLogThreshold(LogLevel::Debug);
    logWrite(LogLevel::Warn, "test.site", "hello \"quoted\"\nline");
    const std::string out = cap.drain();
    EXPECT_NE(out.find("ts_ms="), std::string::npos);
    EXPECT_NE(out.find(" level=warn "), std::string::npos);
    EXPECT_NE(out.find(" site=test.site "), std::string::npos);
    // Inner quotes escaped, newline flattened: still one line.
    EXPECT_NE(out.find("msg=\"hello \\\"quoted\\\" line\""),
              std::string::npos);
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 1);
}

TEST(StructuredLog, ThresholdFilters)
{
    LogCapture cap;
    setLogThreshold(LogLevel::Error);
    ST_LOG_WARN("test.threshold", "below threshold");
    ST_LOG_ERROR("test.threshold", "at threshold");
    const std::string out = cap.drain();
    EXPECT_EQ(out.find("below threshold"), std::string::npos);
    EXPECT_NE(out.find("at threshold"), std::string::npos);
}

TEST(StructuredLog, RateLimiterAdmitsBurstThenRefills)
{
    LogRateLimiter limiter(3.0, 1.0);
    uint64_t now = 1000;
    EXPECT_TRUE(limiter.admit(now));
    EXPECT_TRUE(limiter.admit(now));
    EXPECT_TRUE(limiter.admit(now));
    EXPECT_FALSE(limiter.admit(now)); // burst spent
    EXPECT_EQ(limiter.dropped(), 1u);
    // ST_LOG reads the clock before the limiter's lock, so a caller
    // can bring a time older than the last one: no time elapsed.
    EXPECT_FALSE(limiter.admit(now - 1));
    EXPECT_EQ(limiter.dropped(), 2u);
    // 1 token/sec: after 2s two more pass, a third does not.
    now += 2000;
    EXPECT_TRUE(limiter.admit(now));
    EXPECT_TRUE(limiter.admit(now));
    EXPECT_FALSE(limiter.admit(now));
    EXPECT_EQ(limiter.dropped(), 3u);
    // A stale time does not move the refill clock back either: 999 ms
    // after the last real one is still short of a token.
    EXPECT_FALSE(limiter.admit(now - 1000));
    EXPECT_FALSE(limiter.admit(now + 999));
    EXPECT_EQ(limiter.dropped(), 5u);
}

TEST(StructuredLog, SiteRateLimitTicksDroppedCounter)
{
    const auto dropsNow = [] {
        for (const auto &c :
             MetricsRegistry::instance().snapshot().counters) {
            if (c.name == "logged.dropped")
                return c.value;
        }
        return uint64_t{0};
    };
    LogCapture cap;
    setLogThreshold(LogLevel::Debug);
    const uint64_t before = dropsNow();
    for (int i = 0; i < 32; ++i)
        ST_LOG_WARN("test.flood", "line " + std::to_string(i));
    const std::string out = cap.drain();
    // The burst budget (8) passes; the flood is clipped and counted.
    EXPECT_NE(out.find("line 0"), std::string::npos);
    EXPECT_EQ(out.find("line 31"), std::string::npos);
    EXPECT_GT(dropsNow(), before);
}

// --- flight recorder -----------------------------------------------

TEST(FlightRecorder, DumpShape)
{
    FlightRecorder rec;
    rec.record("session.open", 7, 0, "pipe");
    rec.record("volley.drop", 7, 3, "deadline");
    rec.record("drain.request");
    const std::string json = rec.toJson();
    EXPECT_NE(json.find("\"dropped\": 0"), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"session.open\""),
              std::string::npos);
    EXPECT_NE(json.find("\"a\": 7, \"b\": 3, \"detail\": "
                        "\"deadline\""),
              std::string::npos);
    EXPECT_NE(json.find("\"ts_ms\": "), std::string::npos);
    // Events serialize oldest-first.
    EXPECT_LT(json.find("session.open"), json.find("drain.request"));
    EXPECT_EQ(rec.eventCount(), 3u);
}

TEST(FlightRecorder, RingEvictsOldestAndCounts)
{
    FlightRecorder rec;
    for (size_t i = 0; i < FlightRecorder::kRingCap + 10; ++i)
        rec.record("tick", i);
    EXPECT_EQ(rec.eventCount(), FlightRecorder::kRingCap);
    EXPECT_EQ(rec.droppedEvents(), 10u);
    const std::string json = rec.toJson();
    // The oldest surviving event is #10; #0..#9 were evicted.
    EXPECT_EQ(json.find("\"a\": 9,"), std::string::npos);
    EXPECT_NE(json.find("\"a\": 10,"), std::string::npos);
    rec.clear();
    EXPECT_EQ(rec.eventCount(), 0u);
    EXPECT_EQ(rec.droppedEvents(), 0u);
}

TEST(FlightRecorder, DumpWritesArtifactAtomically)
{
    const std::string path =
        ::testing::TempDir() + "obs_flight_test.json";
    std::remove(path.c_str());
    FlightRecorder rec;
    EXPECT_FALSE(rec.dump()); // no path armed: refuses, no artifact
    rec.setDumpPath(path);
    rec.record("watchdog.trip", 1234, 0);
    ASSERT_TRUE(rec.dump());
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good());
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::ostringstream os;
    os << in.rdbuf();
    EXPECT_NE(os.str().find("watchdog.trip"), std::string::npos);
    std::remove(path.c_str());
}

uint64_t
globalCounter(const std::string &name)
{
    for (const auto &c : MetricsRegistry::instance().snapshot().counters) {
        if (c.name == name)
            return c.value;
    }
    return 0;
}

size_t
occurrences(const std::string &text, const std::string &needle)
{
    size_t n = 0;
    for (size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1))
        ++n;
    return n;
}

TEST(FlightRecorder, ConcurrentDumpsPublishWholeArtifacts)
{
    // The batcher (batch panic) and the housekeeper (watchdog trip)
    // can dump at once, through one staging file, while sessions
    // keep recording.
    const std::string path =
        ::testing::TempDir() + "obs_flight_concurrent.json";
    std::remove(path.c_str());
    FlightRecorder rec;
    rec.setDumpPath(path);
    for (size_t i = 0; i < FlightRecorder::kRingCap; ++i)
        rec.record("fill", i);
    const uint64_t failed_before = globalCounter("flight.dump_failed");

    constexpr int kRounds = 200;
    std::atomic<bool> done{false};
    std::atomic<int> bad_dumps{0};
    std::atomic<int> torn{0};
    std::thread recorder([&] {
        for (uint64_t i = 0; !done.load(); ++i)
            rec.record("volley.drop", i, 0, "deadline");
    });
    const auto dumper = [&] {
        for (int r = 0; r < kRounds; ++r) {
            if (!rec.dump()) {
                ++bad_dumps;
                continue;
            }
            std::ifstream in(path);
            std::ostringstream os;
            os << in.rdbuf();
            const std::string text = os.str();
            const std::string tail = "\n]}\n";
            const bool whole =
                occurrences(text, "{\"dropped\": ") == 1 &&
                occurrences(text, "{\"ts_ms\": ") ==
                    FlightRecorder::kRingCap &&
                text.size() >= tail.size() &&
                text.compare(text.size() - tail.size(), tail.size(),
                             tail) == 0;
            if (!whole)
                ++torn;
        }
    };
    std::thread a(dumper);
    std::thread b(dumper);
    a.join();
    b.join();
    done.store(true);
    recorder.join();

    EXPECT_EQ(bad_dumps.load(), 0);
    EXPECT_EQ(torn.load(), 0);
    EXPECT_EQ(globalCounter("flight.dump_failed"), failed_before);
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good());
    std::remove(path.c_str());
}

TEST(PublishFile, UnwritablePathFailsCleanly)
{
    // The staging file cannot be created: no such directory.
    const std::string missing =
        ::testing::TempDir() + "obs_no_such_dir/flight.json";
    FlightRecorder rec;
    rec.setDumpPath(missing);
    rec.record("watchdog.trip", 1, 0);
    uint64_t before = globalCounter("flight.dump_failed");
    EXPECT_FALSE(rec.dump());
    EXPECT_EQ(globalCounter("flight.dump_failed"), before + 1);
    std::ifstream missing_tmp(missing + ".tmp");
    EXPECT_FALSE(missing_tmp.good());

    // The staging file is written but cannot replace the target: a
    // directory stands at the path.
    const std::string dir = ::testing::TempDir() + "obs_export_dir";
    ::mkdir(dir.c_str(), 0700);
    MetricsExporter exporter(dir, 1000);
    before = globalCounter("metrics.export_failed");
    EXPECT_FALSE(exporter.writeOnce());
    EXPECT_EQ(globalCounter("metrics.export_failed"), before + 1);
    std::ifstream dir_tmp(dir + ".tmp");
    EXPECT_FALSE(dir_tmp.good());
    ::rmdir(dir.c_str());
}

} // namespace
} // namespace st::obs
