/**
 * @file
 * Experiment E7 — the streaming serving layer (ROADMAP item 2).
 *
 * Two questions, answered in-process (no sockets, so the numbers are
 * the engine's, not the kernel's):
 *
 *  1. *Throughput*: volleys/sec end-to-end through StreamServer —
 *     session framing, bounded rings, cross-session batching on the
 *     shared pool, per-session demux — as the concurrent-session
 *     count grows.
 *  2. *Overload*: with a deliberately tiny ingress ring and a short
 *     deadline, a burst larger than the server can hold must degrade
 *     only through the defined paths: every offered volley comes back
 *     as exactly one of delivered / drop-shed / drop-deadline, with
 *     the serve.shed.* metrics accounting the losses. The table shows
 *     delivered+dropped == offered at every burst size.
 */

#include "bench_common.hpp"

#include <chrono>
#include <thread>

#include "serve/latency.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "tnn/tnn_network.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

using namespace st;
using namespace st::serve;

namespace {

constexpr size_t kLines = 16;

TnnNetwork
buildNetwork()
{
    TnnNetwork net;
    ColumnParams l0;
    l0.numInputs = kLines;
    l0.numNeurons = 48;
    l0.wtaK = 4;
    l0.seed = 7;
    net.addLayer(l0);
    ColumnParams l1;
    l1.numInputs = 48;
    l1.numNeurons = kLines;
    l1.wtaK = 1;
    l1.seed = 11;
    net.addLayer(l1);
    return net;
}

/**
 * Decorator that stalls every batch call: the overload arm needs a
 * model slower than the feeder or the tiny ingress ring never fills
 * and nothing is ever shed.
 */
class SlowModel : public ServeModel
{
  public:
    SlowModel(std::unique_ptr<ServeModel> inner,
              std::chrono::milliseconds stall)
        : inner_(std::move(inner)), stall_(stall)
    {
    }

    size_t numInputs() const override { return inner_->numInputs(); }
    std::string name() const override { return inner_->name(); }

    std::vector<std::string>
    processBatch(std::span<const BatchItem> items,
                 size_t nthreads) override
    {
        std::this_thread::sleep_for(stall_);
        return inner_->processBatch(items, nthreads);
    }

    void endSession(uint64_t session) override
    {
        inner_->endSession(session);
    }

  private:
    std::unique_ptr<ServeModel> inner_;
    std::chrono::milliseconds stall_;
};

/** Feed @p volleys windows of synthetic events into @p s. */
void
feedStream(Session &s, size_t volleys, uint64_t window, uint64_t seed)
{
    s.feedLine("stserve 1", steadyNowMs());
    s.feedLine("addresses " + std::to_string(kLines) + " window " +
                   std::to_string(window),
               steadyNowMs());
    uint64_t rng = seed;
    for (size_t w = 0; w < volleys; ++w) {
        const uint64_t base = w * window;
        uint64_t t = base; // times must be nondecreasing on the wire
        for (size_t k = 0; k < 3; ++k) {
            rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
            t += (rng >> 33) % (window / 4 + 1);
            if (t >= base + window)
                break;
            const uint64_t a = (rng >> 20) % kLines;
            s.feedLine(std::to_string(t) + " " + std::to_string(a),
                       steadyNowMs());
        }
        s.feedLine("flush", steadyNowMs());
    }
    s.feedLine("end", steadyNowMs());
}

/** Drain a session's egress, counting volley/drop lines. */
void
drainStream(Session &s, uint64_t &volleys, uint64_t &drops)
{
    while (true) {
        std::optional<std::string> line =
            s.nextOutput(std::chrono::milliseconds(50));
        if (line) {
            if (line->rfind("volley ", 0) == 0)
                ++volleys;
            else if (line->rfind("drop ", 0) == 0)
                ++drops;
        } else if (s.finished()) {
            return;
        }
    }
}

void
printTables()
{
    const size_t volleysPer = bench::scaled(512, 16);
    const uint64_t window = 16;

    std::cout << "E7a | streaming throughput, end-to-end "
                 "(sessions x " << volleysPer << " volleys)\n";
    std::vector<size_t> sessionCounts = {1, 4, 8};
    if (bench::smokeMode())
        sessionCounts = {1, 2};
    AsciiTable t({"sessions", "seconds", "volleys/sec", "delivered"});
    double base_secs = 0;
    LatencySnapshot lt;
    bool haveLat = false;
    bool counted = true; // every run: stage counts == delivered
    for (size_t nsessions : sessionCounts) {
        ServeConfig config;
        config.window = window;
        config.maxSessions = nsessions;
        config.ingressCapacity = 64;
        config.deadlineMs = 60000; // throughput run: nothing expires
        StreamServer server(
            std::make_unique<TnnServeModel>(buildNetwork()), config);
        server.start();

        std::vector<std::shared_ptr<Session>> sessions;
        for (size_t i = 0; i < nsessions; ++i)
            sessions.push_back(server.openSession("bench").session);
        // The stage histograms are process-wide and every run's
        // server records into them: each run reads its own share.
        const LatencySnapshot lat_before = server.latencySnapshot();

        Stopwatch sw;
        std::vector<std::thread> drivers;
        std::vector<uint64_t> delivered(nsessions, 0);
        std::vector<uint64_t> dropped(nsessions, 0);
        for (size_t i = 0; i < nsessions; ++i) {
            drivers.emplace_back([&, i] {
                // Feed and drain concurrently, as a real client does:
                // a stream longer than the egress ring would otherwise
                // stall the batcher and measure the deadline, not the
                // engine.
                std::thread feeder([&, i] {
                    feedStream(*sessions[i], volleysPer, window,
                               17 + i);
                });
                drainStream(*sessions[i], delivered[i], dropped[i]);
                feeder.join();
            });
        }
        for (auto &d : drivers)
            d.join();
        const double secs = sw.seconds();
        // Latency decomposition of every delivered volley (the same
        // block healthJson() serves), captured before the drain so
        // the numbers are the run's, then recorded into the JSON
        // report.
        LatencySnapshot lat = server.latencySnapshot();
        for (size_t stage = 0; stage < kStageCount; ++stage)
            lat.stages[stage] =
                lat.stages[stage].since(lat_before.stages[stage]);
        server.requestStop();
        server.waitDrained();

        uint64_t total = 0;
        for (uint64_t d : delivered)
            total += d;
        const double vps = static_cast<double>(total) / secs;
        if (nsessions == sessionCounts.front())
            base_secs = secs;
        t.row(nsessions, secs, vps, total);
        bench::record("serve",
                      "sessions=" + std::to_string(nsessions), vps,
                      base_secs / secs);
        const uint64_t recorded = kLatencyEnabled ? total : 0;
        for (const auto &stage : lat.stages)
            counted = counted && stage.count == recorded;
        if (nsessions == sessionCounts.back()) {
            lt = lat;
            haveLat = true;
        }
        for (size_t stage = 0; stage < kStageCount; ++stage) {
            const std::string cfg =
                "sessions=" + std::to_string(nsessions);
            const std::string name = stageName(stage);
            bench::recordValue("serve_latency", cfg,
                               name + "_p50_us",
                               lat.stages[stage].percentile(0.50));
            bench::recordValue("serve_latency", cfg,
                               name + "_p99_us",
                               lat.stages[stage].percentile(0.99));
        }
    }
    t.writeTo(std::cout);
    std::cout << "shape check: volleys/sec grows with sessions until "
                 "the pool saturates; delivered must equal "
                 "sessions x " << volleysPer << " (no silent loss).\n\n";

    if (haveLat) {
        std::cout << "E7a' | per-stage latency (us, "
                  << sessionCounts.back() << " sessions)\n";
        AsciiTable lt_table(
            {"stage", "count", "p50", "p90", "p99", "p99.9"});
        bool monotone = true;
        for (size_t stage = 0; stage < kStageCount; ++stage) {
            const obs::MetricsSnapshot::Hist &h = lt.stages[stage];
            lt_table.row(stageName(stage), h.count,
                         h.percentile(0.50), h.percentile(0.90),
                         h.percentile(0.99), h.percentile(0.999));
            monotone = monotone &&
                       h.percentile(0.50) <= h.percentile(0.99);
        }
        lt_table.writeTo(std::cout);
        std::cout << "shape check: p50 <= p99 per stage ("
                  << (monotone ? "ok" : "VIOLATED")
                  << "); every run's counts == delivered ("
                  << (counted ? "ok" : "VIOLATED")
                  << "), 0 when ST_OBS_ENABLED=OFF.\n\n";
    }

    std::cout << "E7b | overload degradation accounting "
                 "(5ms/batch model, ingress=4, deadline=1ms)\n";
    std::vector<size_t> bursts = {32, 128};
    if (bench::smokeMode())
        bursts = {16};
    AsciiTable ot({"offered", "delivered", "dropped", "accounted"});
    for (size_t burst : bursts) {
        ServeConfig config;
        config.window = window;
        config.ingressCapacity = 4;
        config.deadlineMs = 1;
        config.batchMax = 4;
        StreamServer server(
            std::make_unique<SlowModel>(
                std::make_unique<TnnServeModel>(buildNetwork()),
                std::chrono::milliseconds(5)),
            config);
        server.start();
        std::shared_ptr<Session> s =
            server.openSession("burst").session;
        uint64_t delivered = 0, dropped = 0;
        std::thread drain(
            [&] { drainStream(*s, delivered, dropped); });
        feedStream(*s, burst, window, 99);
        drain.join();
        server.requestStop();
        server.waitDrained();
        const bool accounted = delivered + dropped == burst;
        ot.row(burst, delivered, dropped, accounted ? "yes" : "NO");
        bench::recordValue("serve",
                           "burst=" + std::to_string(burst),
                           "shed_fraction",
                           static_cast<double>(dropped) /
                               static_cast<double>(burst));
    }
    ot.writeTo(std::cout);
    std::cout << "shape check: the accounted column must read yes "
                 "everywhere — overload may drop volleys but only "
                 "through the deadline/shed paths, never silently.\n";
}

void
BM_ServeEndToEnd(benchmark::State &state)
{
    const auto nsessions = static_cast<size_t>(state.range(0));
    const size_t volleysPer = 64;
    for (auto _ : state) {
        ServeConfig config;
        config.window = 16;
        config.maxSessions = nsessions;
        config.deadlineMs = 60000;
        StreamServer server(
            std::make_unique<TnnServeModel>(buildNetwork()), config);
        server.start();
        std::vector<std::thread> drivers;
        for (size_t i = 0; i < nsessions; ++i) {
            drivers.emplace_back([&server, i, volleysPer] {
                std::shared_ptr<Session> s =
                    server.openSession("bm").session;
                std::thread feeder(
                    [&s, volleysPer, i] {
                        feedStream(*s, volleysPer, 16, i + 1);
                    });
                uint64_t v = 0, d = 0;
                drainStream(*s, v, d);
                feeder.join();
            });
        }
        for (auto &d : drivers)
            d.join();
        server.requestStop();
        server.waitDrained();
    }
    state.SetItemsProcessed(static_cast<int64_t>(
        state.iterations() * nsessions * volleysPer));
}
BENCHMARK(BM_ServeEndToEnd)->Arg(1)->Arg(4);

} // namespace

ST_BENCH_MAIN(printTables)
