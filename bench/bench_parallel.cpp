/**
 * @file
 * Experiment E5 — the parallel batched volley engine.
 *
 * The paper's execution model is embarrassingly parallel at the volley
 * level (independent inputs). This bench measures what the
 * work-stealing pool buys on real hardware: volleys/sec for
 * TnnNetwork::processBatch on a 1k-volley batch at 1..16 threads, the
 * speedup over the serial path, and the batched-STDP training
 * throughput — while asserting that every thread count reproduces the
 * serial results bit-for-bit. Each lane count is timed once per round
 * and the best of kRounds rounds is kept, with the lane counts
 * interleaved inside a round, so one descheduled run on a shared host
 * cannot fake or hide a speedup.
 */

#include "bench_common.hpp"

#include <algorithm>
#include <thread>

#include "tnn/datasets.hpp"
#include "tnn/stdp.hpp"
#include "tnn/tnn_network.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace st;

namespace {

/** Timed rounds per lane count; the fastest is reported. */
constexpr int kRounds = 101;

TnnNetwork
buildNetwork(size_t lines)
{
    TnnNetwork net;
    ColumnParams l0;
    l0.numInputs = lines;
    l0.numNeurons = 96;
    l0.threshold = 16;
    l0.wtaTau = 3;
    l0.wtaK = 8;
    l0.seed = 7;
    net.addLayer(l0);
    ColumnParams l1;
    l1.numInputs = 96;
    l1.numNeurons = 64;
    l1.threshold = 4;
    l1.seed = 11;
    net.addLayer(l1);
    return net;
}

std::vector<Volley>
makeBatch(size_t lines, size_t count)
{
    PatternSetParams dp;
    dp.numClasses = 8;
    dp.numLines = lines;
    dp.timeSpan = 7;
    dp.jitter = 0.4;
    dp.seed = 313;
    PatternDataset data(dp);
    std::vector<Volley> batch;
    batch.reserve(count);
    for (const auto &s : data.sampleMany(count))
        batch.push_back(s.volley);
    return batch;
}

void
printFigure()
{
    const size_t lines = 48;
    const size_t count = bench::scaled(1024, 16);
    TnnNetwork net = buildNetwork(lines);
    std::vector<Volley> batch = makeBatch(lines, count);

    // The perf-gate checker (tools/check_perf_gate.py) reads the
    // machine core count and per-thread-count efficiency out of the
    // JSON to decide how much scaling this host can legitimately show.
    const auto cores = std::thread::hardware_concurrency();
    bench::recordValue("parallel", "machine", "hardware_concurrency",
                       static_cast<double>(cores));

    const int rounds = bench::smokeMode() ? 1 : kRounds;
    std::cout << "E5a | processBatch throughput vs thread count ("
              << count << " volleys, 48->96->64 network, best of "
              << rounds << " rounds; host has "
              << cores << " hardware threads, "
              << ThreadPool::defaultThreads() << " default lanes)\n";
    std::vector<size_t> lanes{1, 2, 4, 8, 16};
    if (bench::smokeMode())
        lanes = {1, 2};
    std::vector<Volley> serial = net.processBatch(batch, 1);
    std::vector<double> best(lanes.size(), 1e300);
    std::vector<bool> identical(lanes.size(), true);
    for (int r = 0; r < rounds; ++r) {
        for (size_t i = 0; i < lanes.size(); ++i) {
            Stopwatch sw;
            std::vector<Volley> out = net.processBatch(batch, lanes[i]);
            best[i] = std::min(best[i], sw.seconds());
            identical[i] = identical[i] && out == serial;
        }
    }
    bool all_identical = true;
    AsciiTable t({"threads", "seconds", "volleys/sec", "speedup",
                  "efficiency", "identical"});
    for (size_t i = 0; i < lanes.size(); ++i) {
        const size_t n = lanes[i];
        const double secs = best[i];
        double vps = static_cast<double>(count) / secs;
        const double speedup = best[0] / secs;
        const double efficiency = speedup / static_cast<double>(n);
        all_identical = all_identical && identical[i];
        t.row(n, secs, vps, speedup, efficiency,
              identical[i] ? "yes" : "NO");
        const std::string cfg = "threads=" + std::to_string(n);
        bench::record("parallel", cfg, vps, speedup);
        bench::recordValue("parallel", cfg, "efficiency", efficiency);
    }
    bench::recordValue("parallel", "machine", "identical",
                       all_identical ? 1.0 : 0.0);
    t.writeTo(std::cout);
    std::cout << "shape check: volleys/sec scales with cores until "
                 "memory bandwidth; the identical column must read "
                 "yes everywhere (determinism guarantee).\n\n";

    std::cout << "E5b | batched STDP training throughput "
                 "(trainLayerBatched, layer 0, best of "
              << rounds << " rounds)\n";
    SimplifiedStdp rule(0.06, 0.045);
    std::vector<double> train_best(lanes.size(), 1e300);
    for (int r = 0; r < rounds; ++r) {
        for (size_t i = 0; i < lanes.size(); ++i) {
            TnnNetwork fresh = buildNetwork(lines);
            Stopwatch sw;
            fresh.trainLayerBatched(0, batch, rule, 1, lanes[i]);
            train_best[i] = std::min(train_best[i], sw.seconds());
        }
    }
    AsciiTable tr({"threads", "seconds", "samples/sec"});
    for (size_t i = 0; i < lanes.size(); ++i)
        tr.row(lanes[i], train_best[i],
               static_cast<double>(count) / train_best[i]);
    tr.writeTo(std::cout);
    std::cout << "shape check: training scales like inference — the "
                 "winner-selection phase dominates and parallelizes; "
                 "the serial merge is O(winners).\n";
}

void
BM_ProcessBatch(benchmark::State &state)
{
    const size_t lines = 48;
    TnnNetwork net = buildNetwork(lines);
    std::vector<Volley> batch = makeBatch(lines, 256);
    auto nthreads = static_cast<size_t>(state.range(0));
    for (auto _ : state) {
        auto out = net.processBatch(batch, nthreads);
        benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * batch.size()));
}
BENCHMARK(BM_ProcessBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void
BM_TrainBatch(benchmark::State &state)
{
    const size_t lines = 48;
    TnnNetwork net = buildNetwork(lines);
    std::vector<Volley> batch = makeBatch(lines, 256);
    SimplifiedStdp rule(0.06, 0.045);
    auto nthreads = static_cast<size_t>(state.range(0));
    for (auto _ : state) {
        size_t fired = net.trainLayerBatched(0, batch, rule, 1,
                                             nthreads);
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * batch.size()));
}
BENCHMARK(BM_TrainBatch)->Arg(1)->Arg(8);

} // namespace

ST_BENCH_MAIN(printFigure)
