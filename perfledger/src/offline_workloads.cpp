/**
 * @file
 * The `offline` workload: back-to-back Network::evaluateBatch calls on
 * the Fig. 12 SRM0 network at one lane, in-process, with no server in
 * the path. A "volley" is one input volley; latency is the duration of
 * one call (a whole 4096-volley batch).
 *
 * The untraced run times that loop only. The traced run times it again
 * untraced and traced (half the window each), then probes the batch
 * engine (TnnNetwork::processBatch) and the GRL simulator
 * (grl::simulateEventsParallel) for their per-layer numbers. Those two
 * run four lanes, and on a shared four-core host their rate moves from
 * run to run by more than any bound the ledger could hold (README,
 * "Noise"), so they are layers here, not end-to-end metrics.
 */

#include <algorithm>
#include <functional>

#include "grl/event_sim.hpp"
#include "grl/parallel_sim.hpp"
#include "grl/sheet.hpp"
#include "neuron/sorting.hpp"
#include "neuron/srm0_network.hpp"
#include "obs/obs.hpp"
#include "proc.hpp"
#include "tnn/datasets.hpp"
#include "tnn/tnn_network.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace ledger {

namespace {

using st::Time;
using st::Volley;

/** Lanes of the engine probes: one per core of the reference machine. */
constexpr size_t kProbeLanes = 4;

/** Calls of the measured loop per set-up sampled beside it. */
constexpr size_t kSetupEvery = 128;

/**
 * Seconds one call of @p build takes; it returns what it built so that
 * tearing that down stays outside the timing.
 */
template <typename Build>
double
timeSetup(const Build &build)
{
    const uint64_t t0 = nowNs();
    const auto built = build();
    return static_cast<double>(nowNs() - t0) / 1e9;
}

/** The calls of a measured window. */
struct CallLoop
{
    std::vector<TimedSample> calls; //!< (start, duration ns) per call
    std::vector<double> gapsNs;     //!< between calls, checks left out
    uint64_t items = 0;
    uint64_t windowBeginNs = 0;
    std::vector<Slice> slices; //!< process CPU per slice
    uint64_t threadCpuNs = 0;  //!< calling thread, checks left out

    double
    wallNs() const
    {
        double wall = 0;
        for (const Slice &s : slices)
            wall += s.wallNs;
        return wall;
    }
};

/**
 * Call @p run(i) back to back for @p warmup_s and then @p seconds,
 * timing each call; every call is @p items_per_call volleys.
 * @p verify(i) runs after call i: it checks the output, and may time
 * other work. Its wall time and CPU are left out of the slices, so it
 * costs the measured rate nothing.
 */
CallLoop
timeCalls(double warmup_s, double seconds, uint64_t items_per_call,
          const std::function<void(size_t)> &run,
          const std::function<void(size_t)> &verify)
{
    CallLoop loop;
    loop.windowBeginNs = nowNs() + static_cast<uint64_t>(warmup_s * 1e9);
    const uint64_t window_end =
        loop.windowBeginNs + static_cast<uint64_t>(seconds * 1e9);
    const size_t slices = sliceCount(seconds);
    const uint64_t slice_ns = (window_end - loop.windowBeginNs) / slices;
    constexpr size_t kNone = ~size_t{0};
    size_t current = kNone; // slice the running calls belong to
    Slice slice;
    uint64_t slice_cpu = 0, thread0 = 0;
    uint64_t resumed = 0; // when the previous call's check ended
    for (size_t i = 0;; ++i) {
        const uint64_t start = nowNs();
        if (start >= window_end)
            break;
        if (start >= loop.windowBeginNs) {
            const size_t k = std::min<size_t>(
                (start - loop.windowBeginNs) / slice_ns, slices - 1);
            if (k != current) {
                const uint64_t cpu = selfCpuNs();
                if (current == kNone) {
                    thread0 = threadCpuNs();
                    resumed = 0;
                } else {
                    slice.cpuNs = static_cast<double>(cpu - slice_cpu);
                    loop.slices.push_back(slice);
                }
                current = k;
                slice = {};
                slice_cpu = cpu;
            }
        }
        run(i);
        const uint64_t end = nowNs();
        if (current == kNone) {
            verify(i);
            continue;
        }
        const double gap =
            resumed ? static_cast<double>(start - resumed) : 0.0;
        if (resumed)
            loop.gapsNs.push_back(gap);
        loop.calls.push_back({start, static_cast<double>(end - start)});
        loop.items += items_per_call;
        slice.items += static_cast<double>(items_per_call);
        slice.wallNs += gap + static_cast<double>(end - start);
        const uint64_t cpu0 = selfCpuNs(), thread_cpu0 = threadCpuNs();
        verify(i);
        slice_cpu += selfCpuNs() - cpu0;
        thread0 += threadCpuNs() - thread_cpu0;
        resumed = nowNs();
    }
    slice.cpuNs = static_cast<double>(selfCpuNs() - slice_cpu);
    loop.slices.push_back(slice);
    loop.threadCpuNs = threadCpuNs() - thread0;
    return loop;
}

/** Sum of the named obs counter (0 with obs compiled out). */
uint64_t
counter(const char *name)
{
    uint64_t total = 0;
    for (const auto &c :
         st::obs::MetricsRegistry::instance().snapshot().counters)
        if (c.name == name)
            total += c.value;
    return total;
}

/** Evaluator blocks run so far: every body, and the SIMD ones. */
std::pair<uint64_t, uint64_t>
evalBlocks()
{
    const uint64_t simd = counter("eval.block.avx2") +
                          counter("eval.block.avx512") +
                          counter("eval.block.neon");
    return {simd + counter("eval.block.scalar") + counter("eval.block.tail"),
            simd};
}

// --- the measured loop: Network::evaluateBatch -------------------------

/** bench_fig12_srm0's synapse bank: biexponential, 1 in 4 inhibitory. */
std::vector<st::ResponseFunction>
synapses(size_t q)
{
    std::vector<st::ResponseFunction> syn;
    for (size_t i = 0; i < q; ++i)
        syn.push_back(
            i % 4 == 3
                ? st::ResponseFunction::biexponential(2, 4.0, 1.0).negated()
                : st::ResponseFunction::biexponential(3, 4.0, 1.0));
    return syn;
}

std::vector<std::vector<Time>>
randomVolleys(st::Rng &rng, size_t count, size_t width, uint64_t limit)
{
    std::vector<std::vector<Time>> volleys(count);
    for (std::vector<Time> &x : volleys)
        for (size_t i = 0; i < width; ++i)
            x.push_back(rng.chance(0.2) ? st::INF : Time(rng.below(limit)));
    return volleys;
}

/** The per-layer metrics every workload shares, from a traced loop. */
void
addEngineLayers(WorkloadResult &r, const CallLoop &loop,
                double lane_speedup, double untraced_vps)
{
    std::vector<double> durations = sampleValues(loop.calls);
    double busy = 0;
    for (double d : durations)
        busy += d;
    const double calls = static_cast<double>(durations.size());
    const double items = static_cast<double>(loop.items);
    r.add(r.layers, "loadgen.late_p99_ms",
          percentile(loop.gapsNs, 0.99) / 1e6, "ms", loop.gapsNs.size());
    r.add(r.layers, "loadgen.cpu_frac",
          static_cast<double>(loop.threadCpuNs) / loop.wallNs(), "ratio");
    r.add(r.layers, "engine.call_p50_us", percentile(durations, 0.5) / 1e3,
          "us", durations.size());
    r.add(r.layers, "engine.us_per_item", busy / 1e3 / items, "us",
          loop.items, "core.srm0_us_per_volley");
    r.add(r.layers, "engine.items_per_call", items / calls, "count",
          durations.size());
    r.add(r.layers, "engine.busy_frac", busy / loop.wallNs(), "ratio");
    r.add(r.layers, "engine.call_gap_p50_us",
          percentile(loop.gapsNs, 0.5) / 1e3, "us", loop.gapsNs.size());
    r.add(r.layers, "engine.lane_speedup", lane_speedup, "x", 0,
          "evaluateBatch at 1 lane vs default lanes");
    const double traced_vps = sliceVps(loop.slices);
    r.add(r.layers, "trace.overhead_pct",
          (untraced_vps - traced_vps) / untraced_vps * 100, "%", 0,
          "untraced vs traced half-window throughput");
}

// --- probe: TnnNetwork::processBatch -----------------------------------

/** bench_parallel's 48 -> 96 -> 64 network. */
st::TnnNetwork
batchNetwork()
{
    st::TnnNetwork net;
    st::ColumnParams l0;
    l0.numInputs = 48;
    l0.numNeurons = 96;
    l0.threshold = 16;
    l0.wtaTau = 3;
    l0.wtaK = 8;
    l0.seed = 7;
    net.addLayer(l0);
    st::ColumnParams l1;
    l1.numInputs = 96;
    l1.numNeurons = 64;
    l1.threshold = 4;
    l1.seed = 11;
    net.addLayer(l1);
    return net;
}

/** tnn.*: one 1024-volley batch, per layer and per lane count. */
void
probeTnn(const RunOptions &opt, WorkloadResult &r)
{
    st::PatternSetParams dp;
    dp.numClasses = 8;
    dp.numLines = 48;
    dp.timeSpan = 7;
    dp.jitter = 0.4;
    dp.seed = opt.seed;
    st::PatternDataset data(dp);
    std::vector<Volley> batch;
    for (const st::LabeledVolley &s : data.sampleMany(1024))
        batch.push_back(s.volley);
    const st::TnnNetwork net = batchNetwork();
    if (net.processBatch(batch, kProbeLanes) != net.processBatch(batch, 1))
        r.mismatch("processBatch at 4 lanes differs from 1 lane");

    const double one = bestOf3([&] { (void)net.processBatch(batch, 1); });
    const double four =
        bestOf3([&] { (void)net.processBatch(batch, kProbeLanes); });
    const double layer0 = bestOf3(
        [&] { (void)net.processBatchUpTo(batch, 1, kProbeLanes); });
    const double n = static_cast<double>(batch.size());
    r.add(r.layers, "tnn.batch_vps", n / four * 1e9, "volleys/s", 3,
          "1024-volley processBatch at 4 lanes, best of 3");
    r.add(r.layers, "tnn.speedup_4_lanes", one / four, "x", 3);
    r.add(r.layers, "tnn.layer0_ms", layer0 / 1e6, "ms", 3,
          "processBatchUpTo(batch, 1)");
    r.add(r.layers, "tnn.layer1_ms", std::max(0.0, four - layer0) / 1e6,
          "ms", 3, "full batch minus layer 0");
}

// --- probe: grl::simulateEventsParallel --------------------------------

/** bench_fig16_grl's 4 x 50 cortical sheet (~100,800 gates). */
st::grl::SheetParams
sheetParams()
{
    st::grl::SheetParams p;
    p.rows = 4;
    p.cols = 50;
    p.neurons = 4;
    p.synapses = 3;
    p.interDelay = 4;
    p.seed = 99;
    return p;
}

bool
sameRun(const st::grl::SimResult &a, const st::grl::SimResult &b)
{
    return a.outputs == b.outputs && a.fallTime == b.fallTime &&
           a.gateTransitions == b.gateTransitions;
}

/** grl.*: the sheet's serial and 4-thread engines on 32 volleys. */
void
probeGrl(const RunOptions &opt, WorkloadResult &r)
{
    constexpr size_t kVolleys = 32;
    const st::grl::Sheet sheet = st::grl::buildCorticalSheet(sheetParams());
    const st::grl::Circuit &c = sheet.circuit;
    st::grl::ParallelSimOptions four;
    four.threads = kProbeLanes;
    std::vector<std::vector<Time>> xs;
    uint64_t events = 0, windows = 0, boundary = 0;
    size_t threads = kProbeLanes;
    for (size_t i = 0; i < kVolleys; ++i) {
        xs.push_back(
            st::grl::sheetInputVolley(sheet, opt.seed * kVolleys + i));
        const st::grl::SimResult serial = st::grl::simulateEvents(c, xs[i]);
        st::grl::ParallelSimReport report;
        if (!sameRun(st::grl::simulateEventsParallel(c, xs[i], 0, four,
                                                     &report),
                     serial))
            r.mismatch("parallel GRL differs from serial");
        events += serial.fallenLines;
        windows += report.windows;
        boundary += report.boundaryEvents;
        threads = report.threads;
    }
    const auto pass = [&](bool parallel) {
        for (const std::vector<Time> &x : xs)
            (void)(parallel ? st::grl::simulateEventsParallel(c, x, 0, four)
                            : st::grl::simulateEvents(c, x));
    };
    const double serial_ns = bestOf3([&] { pass(false); });
    const uint64_t busy0 = counter("grl.par.busy_ns");
    const uint64_t wall0 = counter("grl.par.wall_ns");
    const double parallel_ns = bestOf3([&] { pass(true); });
    const double busy = static_cast<double>(counter("grl.par.busy_ns") -
                                            busy0);
    const double wall = static_cast<double>(counter("grl.par.wall_ns") -
                                            wall0);
    const double ev = static_cast<double>(events);
    r.add(r.layers, "grl.serial_events_per_s", ev / serial_ns * 1e9,
          "events/s", events, "fallen lines, best of 3");
    r.add(r.layers, "grl.events_per_s", ev / parallel_ns * 1e9, "events/s",
          events, "fallen lines at 4 threads, best of 3");
    r.add(r.layers, "grl.speedup_4_threads", serial_ns / parallel_ns, "x");
    r.add(r.layers, "grl.barrier_stall_frac",
          wall > 0 ? std::max(0.0, 1.0 - busy / (wall * double(threads)))
                   : 0,
          "ratio");
    r.add(r.layers, "grl.windows_per_volley",
          static_cast<double>(windows) / kVolleys, "count", kVolleys);
    r.add(r.layers, "grl.boundary_events_per_volley",
          static_cast<double>(boundary) / kVolleys, "count", kVolleys);
}

} // namespace

WorkloadResult
runOfflineWorkload(const RunOptions &opt)
{
    constexpr size_t kSyn = 32, kBatch = 4096, kBatches = 4;
    WorkloadResult r = newResult(
        opt, {"closed", 0, 0, 0,
              "Network::evaluateBatch, 4096-volley batches, 1 lane"});
    const auto build = [] {
        return st::buildSrm0Network(synapses(kSyn), kSyn);
    };
    const st::Network net = build();
    st::Rng rng(opt.seed);
    std::vector<std::vector<std::vector<Time>>> batches, expected;
    for (size_t b = 0; b < kBatches; ++b) {
        batches.push_back(randomVolleys(rng, kBatch, kSyn, 10));
        expected.emplace_back();
        for (const std::vector<Time> &x : batches.back())
            expected.back().push_back(net.evaluate(x));
    }
    std::vector<std::vector<Time>> out;
    const auto run = [&](size_t i) {
        out = net.evaluateBatch(batches[i % kBatches], 1);
    };
    const auto verify = [&](size_t i) {
        const std::vector<std::vector<Time>> &want = expected[i % kBatches];
        for (size_t v = 0; v < want.size(); ++v)
            if (out[v] != want[v] && r.failed++ == 0)
                r.mismatch("evaluateBatch differs from evaluate");
    };

    if (!opt.traced()) {
        // Set-ups are sampled between calls all through the run, not in
        // one burst before it: a set-up takes about a millisecond, and
        // one busy moment of the host would otherwise decide setup_s.
        std::vector<double> setups;
        const CallLoop loop = timeCalls(
            opt.warmupS, opt.seconds, kBatch, run, [&](size_t i) {
                verify(i);
                if (i % kSetupEvery == 0)
                    setups.push_back(timeSetup([&] {
                        st::Network fresh = build();
                        (void)fresh.compile();
                        return fresh;
                    }));
            });
        r.attempted = loop.items;
        addRateMetrics(r, loop.slices, "process CPU");
        addLatencyMetrics(r, loop.calls, loop.windowBeginNs, opt.seconds);
        r.add(r.endToEnd, "setup_s", quietTime(setups), "s", setups.size(),
              "SRM0 network construction + compile, 10th percentile of "
              "set-ups spread over the run");
        r.add(r.endToEnd, "peak_rss_mb",
              static_cast<double>(procStatusField(0, "VmHWM")) / 1024, "MB");
        return r;
    }

    const double half = opt.seconds / 2;
    const CallLoop plain = timeCalls(opt.warmupS, half, kBatch, run, verify);
    st::obs::TraceSession &trace = st::obs::TraceSession::instance();
    trace.clear();
    trace.enable();
    const auto [blocks0, simd0] = evalBlocks();
    const CallLoop traced = timeCalls(
        opt.warmupS, half, kBatch,
        [&](size_t i) {
            ST_TRACE_SPAN("ledger.call");
            run(i);
        },
        verify);
    const auto [blocks1, simd1] = evalBlocks();
    r.attempted = plain.items + traced.items;
    addEngineLayers(
        r, traced,
        bestOf3([&] { (void)net.evaluateBatch(batches[0], 1); }) /
            bestOf3([&] { (void)net.evaluateBatch(batches[0], 0); }),
        sliceVps(plain.slices));
    const double blocks = static_cast<double>(blocks1 - blocks0);
    r.add(r.layers, "core.simd_block_frac",
          blocks > 0 ? static_cast<double>(simd1 - simd0) / blocks : 0,
          "ratio", blocks1 - blocks0);
    const st::Network sorter = st::bitonicSortNetwork(32);
    const std::vector<std::vector<Time>> sorts =
        randomVolleys(rng, kBatch, 32, 16);
    r.add(r.layers, "core.sorter32_us_per_volley",
          bestOf3([&] { (void)sorter.evaluateBatch(sorts, 1); }) / 1e3 /
              kBatch,
          "us", kBatch);
    probeTnn(opt, r);
    probeGrl(opt, r);
    trace.disable();
    if (!trace.writeJsonFile(opt.traceOut))
        r.mismatch("cannot write trace " + opt.traceOut);
    return r;
}

} // namespace ledger
