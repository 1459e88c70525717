/**
 * @file
 * The serve workloads: the real stnet_serve daemon, booted from a
 * packed STMF model, driven over loopback TCP by the one-thread
 * generator. End-to-end numbers always come from the daemon. The traced
 * run hosts the same wiring in-process instead (loadModel ->
 * makeServeModel -> StreamServer + TcpTransport) behind a timing
 * decorator, twice: untraced, then traced, for the per-layer breakdown
 * and the cost of tracing.
 */

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <memory>
#include <mutex>

#include "loadgen.hpp"
#include "model/serialize.hpp"
#include "obs/obs.hpp"
#include "proc.hpp"
#include "schedule.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace ledger {

namespace {

using st::serve::BatchItem;
using st::serve::ServeModel;

constexpr size_t kSessions = 4;    //!< one per core of the reference box
constexpr size_t kColdStarts = 9;  //!< boots per setup_s median
constexpr uint64_t kCheckEvery = 64; //!< TNN payloads verified
constexpr uint64_t kTraceEvery = 64; //!< volleys traced per session
constexpr size_t kReplayCalls = 512; //!< batches replayed for speedup
constexpr double kDaemonTimeoutS = 10;

struct ServeSpec
{
    bool lsm = false;
    double rateVps = 0;     //!< open loop when > 0
    size_t outstanding = 0; //!< closed loop otherwise
};

ServeSpec
specOf(const std::string &name)
{
    if (name == "tnn-paced") // at 40k the p50 flips from run to run
        return {false, 20000, 0}; // between one send gap and the tail
    if (name == "tnn-saturate")
        return {false, 0, 64}; // the default ingress ring: nothing sheds
    return {true, 10000, 0};   // lsm-paced
}

/** The 2-layer WTA demo stack `stmodel_pack --demo N` packs. */
st::TnnNetwork
demoTnn(size_t inputs)
{
    st::TnnNetwork net;
    st::ColumnParams l1;
    l1.numInputs = inputs;
    l1.numNeurons = inputs * 2;
    l1.wtaK = 4;
    net.addLayer(l1);
    st::ColumnParams l2;
    l2.numInputs = inputs * 2;
    l2.numNeurons = inputs;
    l2.wtaK = 1;
    net.addLayer(l2);
    return net;
}

std::string
packModel(bool lsm, const std::string &dir)
{
    const std::string path = dir + (lsm ? "/lsm.stmf" : "/tnn.stmf");
    st::model::PackOptions options;
    options.id = lsm ? "ledger-lsm" : "ledger-tnn";
    st::Status status;
    if (lsm) {
        st::model::LsmModelConfig config;
        config.params.numInputs = kAddresses;
        config.params.numNeurons = 96;
        status = st::model::packLsm(config, path, options);
    } else {
        status = st::model::packTnn(demoTnn(kAddresses), path, options);
    }
    if (!status.isOk())
        throw std::runtime_error("packing " + path + ": " + status.str());
    return path;
}

st::model::LoadedModel
loadOrThrow(const std::string &path)
{
    st::model::LoadedModel loaded;
    const st::Status status =
        st::model::loadModel(path, st::model::LoadMode::Mmap, loaded);
    if (!status.isOk())
        throw std::runtime_error(status.str());
    return loaded;
}

/** Last line of a child's stderr, for failure messages. */
std::string
lastLine(const std::string &log)
{
    std::string s = log;
    while (!s.empty() && s.back() == '\n')
        s.pop_back();
    const size_t nl = s.rfind('\n');
    return nl == std::string::npos ? s : s.substr(nl + 1);
}

/**
 * One daemon boot: spawn to the first `stserve-ok`, in seconds. The
 * probe session then ends and the daemon must drain cleanly on
 * SIGTERM. NaN (and a recorded problem) on any failure.
 */
double
coldStart(const RunOptions &opt, const std::string &model,
          WorkloadResult &r)
{
    const uint64_t t0 = nowNs();
    ChildProcess daemon({opt.daemonExe, "--model", model, "--tcp", "0"});
    const uint16_t port = daemon.waitListening(kDaemonTimeoutS);
    const int fd = port ? dialLoopback(port) : -1;
    bool ok = fd >= 0 && writeAll(fd, "stserve 1\n") &&
              readUntilPrefix(fd, "stserve-ok", kDaemonTimeoutS);
    const double secs = static_cast<double>(nowNs() - t0) / 1e9;
    ok = ok && writeAll(fd, "end\n") &&
         readUntilPrefix(fd, "end ", kDaemonTimeoutS);
    if (fd >= 0)
        close(fd);
    ok = daemon.terminate(kDaemonTimeoutS) && ok;
    if (!ok) {
        r.mismatch("daemon cold start failed: " + lastLine(daemon.log()));
        return std::nan("");
    }
    return secs;
}

LoadSpec
loadSpec(const RunOptions &opt, const ServeSpec &spec)
{
    LoadSpec load;
    load.sessions = kSessions;
    load.rateVps = spec.rateVps;
    load.outstanding = spec.outstanding;
    load.warmupS = opt.warmupS;
    load.measureS = opt.seconds;
    load.seed = opt.seed;
    load.keepEvery = spec.lsm ? 0 : kCheckEvery;
    load.keepSession0 = spec.lsm;
    return load;
}

/** Protocol accounting: every session ran to an end line whose
 *  counters equal what the client saw. */
void
checkSessions(const LoadRun &run, WorkloadResult &r)
{
    for (size_t s = 0; s < run.sessions.size(); ++s) {
        const SessionRun &sr = run.sessions[s];
        const std::string who = "session " + std::to_string(s) + ": ";
        if (!sr.error.empty())
            r.mismatch(who + sr.error);
        else if (!sr.ended)
            r.mismatch(who + "no end line");
        else if (sr.endVolleys != sr.delivered || sr.endDrops != sr.drops)
            r.mismatch(who + "end line says " +
                       std::to_string(sr.endVolleys) + " volleys " +
                       std::to_string(sr.endDrops) + " drops, client saw " +
                       std::to_string(sr.delivered) + " and " +
                       std::to_string(sr.drops));
    }
}

/**
 * Payload check against the same packed model run in-process. TNN:
 * every kept (every 64th) payload of every session must byte-equal
 * processBatch of the volley regenerated from seed + seq. LSM: all of
 * session 0's payloads, replayed in order through a fresh model.
 */
void
checkPayloads(const std::string &model_path, const LoadRun &run,
              uint64_t seed, WorkloadResult &r)
{
    const std::unique_ptr<ServeModel> model =
        st::serve::makeServeModel(loadOrThrow(model_path));
    std::vector<BatchItem> items;
    std::vector<const std::string *> expected;
    for (size_t s = 0; s < run.sessions.size(); ++s)
        for (const auto &[seq, payload] : run.sessions[s].payloads) {
            BatchItem item;
            item.session = s + 1;
            item.seq = seq;
            item.volley = volleyInput(seed, static_cast<uint32_t>(s), seq);
            items.push_back(std::move(item));
            expected.push_back(&payload);
        }
    if (items.empty()) {
        r.mismatch("no payloads were kept for checking");
        return;
    }
    const std::vector<std::string> got = model->processBatch(items, 1);
    uint64_t wrong = 0;
    for (size_t i = 0; i < items.size(); ++i)
        if (got[i] != *expected[i]) {
            if (wrong++ == 0)
                r.mismatch("payload of session " +
                           std::to_string(items[i].session - 1) + " seq " +
                           std::to_string(items[i].seq) + " is '" +
                           *expected[i] + "', model gives '" + got[i] +
                           "'");
        }
    r.failed += wrong;
}

/** Volleys of the window that were never delivered. */
uint64_t
unanswered(const std::vector<TimedSample> &samples)
{
    return static_cast<uint64_t>(
        std::count_if(samples.begin(), samples.end(),
                      [](const TimedSample &s) {
                          return s.value == kNever;
                      }));
}

/**
 * A ServeModel decorator that times every processBatch call the
 * hosted server makes, traces sampled items keyed by session and seq,
 * and keeps a sample of batches for the lane-speedup replay.
 */
class TimedModel : public ServeModel
{
  public:
    struct Call
    {
        uint64_t startNs = 0;
        uint64_t endNs = 0;
        uint32_t items = 0;
    };

    explicit TimedModel(std::unique_ptr<ServeModel> inner)
        : inner_(std::move(inner))
    {
    }

    size_t numInputs() const override { return inner_->numInputs(); }
    std::string name() const override { return inner_->name(); }
    bool transactional() const override { return inner_->transactional(); }
    void endSession(uint64_t session) override
    {
        inner_->endSession(session);
    }

    std::vector<std::string>
    processBatch(std::span<const BatchItem> items,
                 size_t nthreads) override
    {
        const uint64_t start = nowNs();
        std::vector<std::string> out;
        {
            ST_TRACE_SPAN("ledger.model_call");
            out = inner_->processBatch(items, nthreads);
        }
        const uint64_t end = nowNs();
        std::lock_guard<std::mutex> lock(mutex_);
        if (st::obs::TraceSession::instance().enabled())
            for (const BatchItem &item : items)
                if (item.seq % kTraceEvery == 0) {
                    names_.push_back("model.volley s" +
                                     std::to_string(item.session) + "#" +
                                     std::to_string(item.seq));
                    st::obs::TraceSession::instance().record(
                        names_.back().c_str(), start, end);
                }
        if (calls_.size() % 16 == 0 && samples_.size() < kReplayCalls)
            samples_.emplace_back(items.begin(), items.end());
        calls_.push_back({start, end, static_cast<uint32_t>(items.size())});
        return out;
    }

    size_t
    callCount() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return calls_.size();
    }

    std::vector<Call>
    calls() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return calls_;
    }

    std::vector<std::vector<BatchItem>>
    samples() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return samples_;
    }

  private:
    std::unique_ptr<ServeModel> inner_;
    mutable std::mutex mutex_;
    std::vector<Call> calls_;
    std::vector<std::vector<BatchItem>> samples_;
    std::deque<std::string> names_; //!< span names outlive the flush
};

/** p-quantile of one latency stage over the window [a, b]. */
double
stageQuantile(const st::serve::LatencySnapshot &a,
              const st::serve::LatencySnapshot &b, size_t stage, double q)
{
    std::array<uint64_t, st::obs::Histogram::kBuckets> d{};
    for (size_t i = 0; i < d.size(); ++i)
        d[i] = b.stages[stage].buckets[i] - a.stages[stage].buckets[i];
    return st::obs::bucketQuantile(d, q);
}

/**
 * Serial-vs-default-lanes time of the sampled batches, replayed on a
 * fresh instance of the served model.
 */
double
laneSpeedup(const st::model::LoadedModel &loaded,
            const std::vector<std::vector<BatchItem>> &batches,
            uint64_t lanes)
{
    const std::unique_ptr<ServeModel> model =
        st::serve::makeServeModel(loaded);
    const auto pass = [&](size_t n) {
        for (const std::vector<BatchItem> &b : batches)
            (void)model->processBatch(b, n);
    };
    return bestOf3([&] { pass(1); }) / bestOf3([&] { pass(lanes); });
}

/** One hosted-server pass of the traced run. */
struct HostedPass
{
    /** Kept past the server: the trace reads its span names at flush. */
    std::shared_ptr<TimedModel> model;
    LoadRun run;
    std::vector<TimedModel::Call> calls; //!< those inside the window
    std::vector<std::vector<BatchItem>> samples;
    st::serve::LatencySnapshot before, after;
    uint64_t threads = 0; //!< the server's, mid-window
};

/**
 * Host the wiring stnet_serve uses in this process (loadModel ->
 * makeServeModel -> StreamServer + TcpTransport, ServeConfig::fromEnv)
 * behind a TimedModel, and drive it for half the window, with client
 * spans when @p traced. The outputs are checked as in the daemon run.
 */
HostedPass
hostedPass(const RunOptions &opt, const ServeSpec &spec,
           const std::string &model_path,
           const st::model::LoadedModel &loaded, bool traced,
           WorkloadResult &r)
{
    auto timed =
        std::make_shared<TimedModel>(st::serve::makeServeModel(loaded));
    st::serve::StreamServer server(timed, loaded.info,
                                   st::serve::ServeConfig::fromEnv());
    server.start();
    LoadSpec load = loadSpec(opt, spec);
    load.measureS = opt.seconds / 2;
    load.traceEvery = traced ? kTraceEvery : 0;
    HostedPass pass;
    pass.model = timed;
    size_t call_begin = 0, call_end = 0;
    {
        st::serve::TcpTransport tcp(server, 0);
        tcp.serveAsync();
        pass.run = runLoad(tcp.port(), load, [&](size_t tick, size_t slices) {
            if (tick == 0 || tick == slices) {
                (tick == 0 ? pass.before : pass.after) =
                    server.latencySnapshot();
                (tick == 0 ? call_begin : call_end) = timed->callCount();
            }
            if (tick == slices / 2) // every thread but the generator
                pass.threads = procStatusField(0, "Threads") - 1;
        });
        server.requestStop();
    }
    if (!server.waitDrained())
        r.mismatch("hosted server did not drain cleanly");
    checkSessions(pass.run, r);
    checkPayloads(model_path, pass.run, opt.seed, r);
    const std::vector<TimedSample> lat = pass.run.windowLatencies();
    r.attempted += lat.size();
    r.failed += unanswered(lat);
    const std::vector<TimedModel::Call> all = timed->calls();
    pass.calls.assign(all.begin() + std::min(call_begin, all.size()),
                      all.begin() + std::min(call_end, all.size()));
    pass.samples = timed->samples();
    return pass;
}

/**
 * The traced run: the hosted server for half the window untraced, then
 * half traced. The per-layer metrics come from the traced pass;
 * trace.overhead_pct compares the two, which differ in tracing only.
 */
void
runHosted(const RunOptions &opt, const ServeSpec &spec,
          const std::string &model_path, WorkloadResult &r)
{
    std::vector<double> loads;
    st::model::LoadedModel loaded;
    for (size_t i = 0; i < kColdStarts; ++i) {
        const uint64_t t0 = nowNs();
        loaded = loadOrThrow(model_path);
        loads.push_back(static_cast<double>(nowNs() - t0) / 1e6);
    }
    const HostedPass plain =
        hostedPass(opt, spec, model_path, loaded, false, r);
    st::obs::TraceSession &trace = st::obs::TraceSession::instance();
    trace.clear();
    trace.enable();
    const HostedPass traced =
        hostedPass(opt, spec, model_path, loaded, true, r);
    trace.disable();
    if (!trace.writeJsonFile(opt.traceOut))
        r.mismatch("cannot write trace " + opt.traceOut);

    const LoadRun &run = traced.run;
    const double window = run.windowSeconds();
    const auto client_p50 = [](const LoadRun &lr) {
        return percentile(sampleValues(lr.windowLatencies()), 0.5);
    };
    const std::vector<double> late = sampleValues(run.windowLateness());
    r.add(r.layers, "loadgen.late_p99_ms", percentile(late, 0.99) / 1e6,
          "ms", late.size());
    r.add(r.layers, "loadgen.cpu_frac",
          static_cast<double>(run.generatorCpuNs) / (window * 1e9),
          "ratio");

    std::vector<double> durations, gaps;
    double busy = 0, items = 0;
    for (size_t i = 0; i < traced.calls.size(); ++i) {
        const TimedModel::Call &c = traced.calls[i];
        durations.push_back(static_cast<double>(c.endNs - c.startNs));
        busy += durations.back();
        items += c.items;
        if (i > 0)
            gaps.push_back(static_cast<double>(
                c.startNs -
                std::min(c.startNs, traced.calls[i - 1].endNs)));
    }
    const double calls = static_cast<double>(durations.size());
    r.add(r.layers, "engine.call_p50_us",
          percentile(durations, 0.5) / 1e3, "us", durations.size());
    r.add(r.layers, "engine.us_per_item", busy / 1e3 / items, "us",
          static_cast<uint64_t>(items));
    r.add(r.layers, "engine.items_per_call", items / calls, "count",
          durations.size());
    r.add(r.layers, "engine.busy_frac", busy / (window * 1e9), "ratio");
    r.add(r.layers, "engine.call_gap_p50_us", percentile(gaps, 0.5) / 1e3,
          "us", gaps.size());
    const size_t lanes = st::serve::ServeConfig::fromEnv().nthreads;
    r.add(r.layers, "engine.lane_speedup",
          laneSpeedup(loaded, traced.samples,
                      lanes ? lanes : st::ThreadPool::defaultThreads()),
          "x", traced.samples.size());
    const double plain_p50 = client_p50(plain.run);
    const auto run_vps = [](const LoadRun &lr) { // CPU unused here
        return sliceVps(lr.slices(lr.tickNs));
    };
    const double plain_vps = run_vps(plain.run);
    r.add(r.layers, "trace.overhead_pct",
          spec.rateVps > 0
              ? (client_p50(run) - plain_p50) / plain_p50 * 100
              : (plain_vps - run_vps(run)) / plain_vps * 100,
          "%", 0,
          spec.rateVps > 0 ? "traced vs untraced hosted lat_p50"
                           : "untraced vs traced hosted throughput");

    // Serve-only layers (the JSON report; see README "Per-layer").
    const auto stage = [&](size_t s, double q) {
        return stageQuantile(traced.before, traced.after, s, q);
    };
    r.add(r.layers, "transport.overhead_p50_us",
          client_p50(run) / 1e3 - stage(4, 0.5), "us");
    r.add(r.layers, "server.queue_p50_us", stage(0, 0.5), "us");
    r.add(r.layers, "server.queue_p99_us", stage(0, 0.99), "us");
    r.add(r.layers, "server.batch_p50_us", stage(1, 0.5), "us");
    r.add(r.layers, "server.egress_p50_us", stage(3, 0.5), "us");
    r.add(r.layers, "server.threads", static_cast<double>(traced.threads),
          "count");
    r.add(r.layers, "stmf.load_ms", median(loads), "ms", loads.size());
}

} // namespace

WorkloadResult
runServeWorkload(const RunOptions &opt)
{
    const ServeSpec spec = specOf(opt.workload);
    WorkloadResult r = newResult(
        opt, {spec.rateVps > 0 ? "open" : "closed", spec.rateVps, kSessions,
              spec.outstanding,
              std::string("stnet_serve --model ") +
                  (spec.lsm ? "lsm" : "tnn") + ".stmf --tcp 0"});
    const std::string model = packModel(spec.lsm, opt.workDir);
    if (opt.traced()) {
        runHosted(opt, spec, model, r);
        return r;
    }

    // Half the cold starts before the window and half after it, so that
    // one busy moment of the host cannot decide setup_s.
    std::vector<double> boots;
    const auto boot = [&](size_t n) {
        for (size_t i = 0; i < n; ++i)
            if (const double s = coldStart(opt, model, r); !std::isnan(s))
                boots.push_back(s);
    };
    boot(kColdStarts - kColdStarts / 2);
    if (!r.correct)
        return r;

    ChildProcess daemon({opt.daemonExe, "--model", model, "--tcp", "0"});
    const uint16_t port = daemon.waitListening(kDaemonTimeoutS);
    if (port == 0) {
        r.mismatch("daemon did not start: " + lastLine(daemon.log()));
        return r;
    }
    std::vector<uint64_t> cpu_at_ticks;
    uint64_t threads = 0;
    const LoadRun run = runLoad(
        port, loadSpec(opt, spec), [&](size_t tick, size_t slices) {
            daemon.drainStderr();
            cpu_at_ticks.push_back(processCpuNs(daemon.pid()));
            if (tick == slices / 2)
                threads = procStatusField(daemon.pid(), "Threads");
        });
    const uint64_t rss_kb = procStatusField(daemon.pid(), "VmHWM");
    if (!daemon.terminate(kDaemonTimeoutS))
        r.mismatch("daemon did not exit 0 with 'drained cleanly': " +
                   lastLine(daemon.log()));
    boot(kColdStarts / 2);
    checkSessions(run, r);
    checkPayloads(model, run, opt.seed, r);

    const std::vector<TimedSample> lat = run.windowLatencies();
    r.attempted = lat.size();
    r.failed += unanswered(lat);
    addRateMetrics(r, run.slices(cpu_at_ticks),
                   "daemon CPU, " + std::to_string(threads) + " threads");
    const double p50 = addLatencyMetrics(r, lat, run.windowBeginNs,
                                         opt.seconds);
    const double late_p99 =
        percentile(sampleValues(run.windowLateness()), 0.99);
    if (late_p99 > p50)
        r.flags.push_back("generator ran late: p99 send - due " +
                          jsonNumber(late_p99 / 1e6) +
                          " ms > lat_p50_window_ms " +
                          jsonNumber(p50 / 1e6) + " ms");
    r.add(r.endToEnd, "setup_s", quietTime(boots), "s", boots.size(),
          "10th percentile of daemon spawn to first stserve-ok, before "
          "and after the window");
    r.add(r.endToEnd, "peak_rss_mb", static_cast<double>(rss_kb) / 1024,
          "MB");
    return r;
}

} // namespace ledger
