/**
 * @file
 * Determinism tests for the parallel batched volley engine: the batch
 * APIs must reproduce the serial path bit-for-bit at every thread
 * count — including WTA tie-breaks and the algebra's lt(a, a) = inf
 * law — and batched STDP training must yield bit-identical weights.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "core/network.hpp"
#include "neuron/wta.hpp"
#include "obs/obs.hpp"
#include "test_helpers.hpp"
#include "tnn/datasets.hpp"
#include "tnn/stdp.hpp"
#include "tnn/tnn_network.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

using namespace st;
using st::testing::kNo;
using st::testing::V;

namespace {

/**
 * Thread counts every batch API is checked at: powers of two through
 * 16, plus a 2x-oversubscribed count (twice the larger of the hardware
 * concurrency and the shared pool's lane count) — determinism must
 * survive requesting far more lanes than the machine has.
 */
std::vector<size_t>
testLanes()
{
    const size_t hw =
        std::max<size_t>(1, std::thread::hardware_concurrency());
    const size_t pool_lanes = ThreadPool::shared().size() + 1;
    std::vector<size_t> lanes{1, 2, 4, 8, 16};
    lanes.push_back(2 * std::max({hw, pool_lanes, size_t{16}}));
    return lanes;
}

const std::vector<size_t> kLanes = testLanes();

TnnNetwork
makeNetwork(uint64_t seed)
{
    TnnNetwork net;
    ColumnParams l0;
    l0.numInputs = 24;
    l0.numNeurons = 80; // wide: 80 neuron sweeps per sorted volley
    l0.threshold = 8;
    l0.wtaTau = 3;
    l0.wtaK = 6;
    l0.seed = seed;
    net.addLayer(l0);
    ColumnParams l1;
    l1.numInputs = 80;
    l1.numNeurons = 16;
    l1.threshold = 3;
    l1.seed = seed + 1;
    net.addLayer(l1);
    return net;
}

std::vector<Volley>
makeBatch(size_t lines, size_t count, uint64_t seed)
{
    PatternSetParams dp;
    dp.numClasses = 6;
    dp.numLines = lines;
    dp.timeSpan = 6;
    dp.jitter = 0.5;
    dp.dropProb = 0.05;
    dp.seed = seed;
    PatternDataset data(dp);
    std::vector<Volley> batch;
    batch.reserve(count);
    for (const auto &s : data.sampleMany(count))
        batch.push_back(s.volley);
    return batch;
}

TEST(ParallelBatchTest, ProcessBatchMatchesSerialAtEveryThreadCount)
{
    TnnNetwork net = makeNetwork(0xabc);
    std::vector<Volley> batch = makeBatch(24, 96, 42);

    std::vector<Volley> serial;
    serial.reserve(batch.size());
    for (const Volley &v : batch)
        serial.push_back(net.process(v));

    for (size_t lanes : kLanes) {
        std::vector<Volley> out = net.processBatch(batch, lanes);
        ASSERT_EQ(out.size(), serial.size());
        for (size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], serial[i])
                << "volley " << i << " at " << lanes << " threads";
    }
}

TEST(ParallelBatchTest, ProcessBatchKeepsKWtaTieBreakDeterministic)
{
    // All-equal weights make every neuron fire simultaneously, so the
    // k-WTA tie-break (lowest line index wins) decides the output.
    ColumnParams cp;
    cp.numInputs = 8;
    cp.numNeurons = 72;
    cp.threshold = 2;
    cp.initJitter = 0.0; // identical neurons => guaranteed ties
    cp.wtaTau = 1;
    cp.wtaK = 3;
    cp.seed = 5;
    TnnNetwork net;
    net.addLayer(cp);

    std::vector<Volley> batch(64, V({0, 0, 1, 1, 2, 2, 3, kNo}));
    std::vector<Volley> serial;
    for (const Volley &v : batch)
        serial.push_back(net.process(v));
    for (size_t lanes : kLanes)
        EXPECT_EQ(net.processBatch(batch, lanes), serial)
            << lanes << " threads";
}

TEST(ParallelBatchTest, ProcessBatchEmptyAndSingle)
{
    TnnNetwork net = makeNetwork(0x1);
    EXPECT_TRUE(net.processBatch({}, 4).empty());
    std::vector<Volley> one = makeBatch(24, 1, 9);
    EXPECT_EQ(net.processBatch(one, 8).at(0), net.process(one[0]));
}

TEST(ParallelTrainTest, TrainBatchWeightsBitIdenticalAcrossThreads)
{
    std::vector<Volley> batch = makeBatch(24, 128, 77);
    SimplifiedStdp rule(0.06, 0.045);

    ColumnParams cp;
    cp.numInputs = 24;
    cp.numNeurons = 80;
    cp.threshold = 8;
    cp.fatigue = 4;
    cp.seed = 0xf00d;

    Column reference(cp);
    size_t fired_serial = reference.trainBatch(batch, rule, 1);

    for (size_t lanes : kLanes) {
        Column col(cp);
        size_t fired = col.trainBatch(batch, rule, lanes);
        EXPECT_EQ(fired, fired_serial) << lanes << " threads";
        for (size_t j = 0; j < cp.numNeurons; ++j) {
            EXPECT_EQ(col.weights(j), reference.weights(j))
                << "neuron " << j << " at " << lanes << " threads";
            EXPECT_EQ(col.winCount(j), reference.winCount(j))
                << "neuron " << j << " at " << lanes << " threads";
        }
    }
}

TEST(ParallelTrainTest, TrainLayerBatchedBitIdenticalAcrossThreads)
{
    std::vector<Volley> batch = makeBatch(24, 64, 123);
    SimplifiedStdp rule(0.05, 0.04);

    TnnNetwork reference = makeNetwork(0xbeef);
    size_t fired_serial =
        reference.trainLayerBatched(1, batch, rule, 3, 1);

    for (size_t lanes : kLanes) {
        TnnNetwork net = makeNetwork(0xbeef);
        size_t fired = net.trainLayerBatched(1, batch, rule, 3, lanes);
        EXPECT_EQ(fired, fired_serial) << lanes << " threads";
        for (size_t j = 0; j < net.layer(1).params().numNeurons; ++j)
            EXPECT_EQ(net.layer(1).weights(j),
                      reference.layer(1).weights(j))
                << "neuron " << j << " at " << lanes << " threads";
    }
}

TEST(ParallelTrainTest, TrainBatchOfOneMatchesTrainStep)
{
    // A 1-volley batch has no frozen-weight skew: it must agree with
    // the classic serial step exactly.
    std::vector<Volley> batch = makeBatch(24, 1, 5);
    SimplifiedStdp rule(0.06, 0.045);
    ColumnParams cp;
    cp.numInputs = 24;
    cp.numNeurons = 66;
    cp.threshold = 6;
    cp.seed = 21;

    Column stepwise(cp);
    TrainResult r = stepwise.trainStep(batch[0], rule);
    Column batched(cp);
    size_t fired = batched.trainBatch(batch, rule, 8);
    EXPECT_EQ(fired, r.winner ? 1u : 0u);
    for (size_t j = 0; j < cp.numNeurons; ++j)
        EXPECT_EQ(batched.weights(j), stepwise.weights(j));
}

TEST(EvaluateBatchTest, MatchesEvaluateIncludingLtTies)
{
    // The WTA network is built from lt gates, and identical spike
    // times hit the tie-blocking law lt(a, a) = inf. The batch path
    // must reproduce those inf outputs exactly at any thread count.
    Network net = wtaNetwork(6, 1);
    std::vector<std::vector<Time>> batch{
        V({0, 0, 0, 0, 0, 0}), // full tie: everything survives WTA
        V({3, 3, 3, 3, 3, 3}), // tie away from zero
        V({0, 1, 2, 3, 4, 5}),
        V({5, 4, 3, 2, 1, 0}),
        V({kNo, kNo, kNo, kNo, kNo, kNo}),
        V({2, 2, 9, kNo, 2, 7}),
    };
    Rng rng(99);
    for (int i = 0; i < 50; ++i) {
        std::vector<Time> v(6);
        for (auto &t : v) {
            uint64_t x = rng.below(8);
            t = x == 7 ? INF : Time(x);
        }
        batch.push_back(v);
    }

    std::vector<std::vector<Time>> serial;
    for (const auto &v : batch)
        serial.push_back(net.evaluate(v));

    for (size_t lanes : kLanes) {
        std::vector<std::vector<Time>> out =
            net.evaluateBatch(batch, lanes);
        ASSERT_EQ(out.size(), serial.size());
        for (size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], serial[i])
                << "volley " << i << " at " << lanes << " threads";
    }
}

#if ST_OBS_ENABLED
TEST(ParallelBatchTest, MultiThreadedBatchTakesThePipelinedPath)
{
    // A multi-lane batch large enough for several blocks must go
    // through the pipelined dataflow engine, not the serial fallback:
    // the tnn.pipeline counters advance by (at least) the expected
    // block and stage totals. Combined with the bit-identity tests
    // above, this pins "pipelined AND identical", not just one of the
    // two.
    auto counter = [](const char *name) -> uint64_t {
        for (const auto &c :
             obs::MetricsRegistry::instance().snapshot().counters) {
            if (c.name == name)
                return c.value;
        }
        return 0;
    };
    const uint64_t blocks_before = counter("tnn.pipeline.blocks");
    const uint64_t stages_before = counter("tnn.pipeline.stages");

    TnnNetwork net = makeNetwork(0xd00d);
    std::vector<Volley> batch = makeBatch(24, 96, 271);
    net.processBatch(batch, 4);

    const uint64_t blocks = counter("tnn.pipeline.blocks") - blocks_before;
    const uint64_t stages = counter("tnn.pipeline.stages") - stages_before;
    EXPECT_GE(blocks, 2u) << "batch ran on the serial fallback";
    // Two layers: every block contributes two stage tasks.
    EXPECT_GE(stages, 2 * blocks);
}
#endif

TEST(ParallelBatchTest, ConcurrentColdCacheProcessIsSafe)
{
    // A freshly constructed network, first used by a parallel batch:
    // many threads sweep the same columns at once, each in its own
    // scratch. Under TSan this test fails if any sweep state is
    // shared between threads.
    TnnNetwork net = makeNetwork(0xcafe);
    std::vector<Volley> batch = makeBatch(24, 64, 31337);
    std::vector<Volley> parallel_first = net.processBatch(batch, 8);

    TnnNetwork fresh = makeNetwork(0xcafe);
    std::vector<Volley> serial;
    for (const Volley &v : batch)
        serial.push_back(fresh.process(v));
    EXPECT_EQ(parallel_first, serial);
}

} // namespace
