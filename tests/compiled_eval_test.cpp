/**
 * @file
 * Differential tests: the compiled evaluation plan must be
 * bit-identical to the reference interpreter on every network and
 * every volley — including inf-heavy volleys, config mutations between
 * calls, structural mutations that invalidate the plan, batched
 * evaluation across thread counts and batch tails, and every
 * full-block executor body this CPU can run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "core/eval_plan.hpp"
#include "core/network.hpp"
#include "neuron/response.hpp"
#include "neuron/sorting.hpp"
#include "neuron/srm0_network.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace st {
namespace {

using testing::kNo;
using testing::randomVolley;
using testing::V;

/** A finite time within 64 of the top of the range (2^64 - 1). */
Time
nearTop(Rng &rng)
{
    return Time(~uint64_t{0} - 1 - rng.below(64));
}

/**
 * A random feedforward network over the full primitive set, richer
 * than testing::randomNetwork: it adds config nodes, n-ary min/max,
 * inc chains, and a random output set (so DCE has real work to do).
 * With @p huge, half the inc delays are at least 2^63 and half the
 * finite configs sit near the top of the range, so saturating adds
 * wrap all over the graph.
 */
Network
richRandomNetwork(Rng &rng, size_t num_inputs, size_t num_blocks,
                  bool huge = false)
{
    Network net(num_inputs);
    auto randomNode = [&]() {
        return static_cast<NodeId>(rng.below(net.size()));
    };
    for (size_t b = 0; b < num_blocks; ++b) {
        switch (rng.below(6)) {
          case 0:
            if (rng.chance(0.3))
                net.config(INF);
            else if (huge && rng.chance(0.5))
                net.config(nearTop(rng));
            else
                net.config(Time(rng.below(8)));
            break;
          case 1: {
            // Inc chains of depth 1..3 exercise fusion.
            NodeId id = randomNode();
            size_t depth = 1 + rng.below(3);
            for (size_t d = 0; d < depth; ++d) {
                Time::rep delay = rng.below(5);
                if (huge && rng.chance(0.5))
                    delay = (uint64_t{1} << 63) + rng.below(64);
                id = net.inc(id, delay);
            }
            break;
          }
          case 2:
          case 3: {
            std::vector<NodeId> srcs(2 + rng.below(3));
            for (NodeId &s : srcs)
                s = randomNode();
            if (rng.chance(0.5))
                net.min(srcs);
            else
                net.max(srcs);
            break;
          }
          default:
            net.lt(randomNode(), randomNode());
            break;
        }
    }
    // A random output set, biased to leave some of the graph dead.
    size_t num_outputs = 1 + rng.below(3);
    for (size_t k = 0; k < num_outputs; ++k)
        net.markOutput(static_cast<NodeId>(rng.below(net.size())));
    return net;
}

/**
 * A volley of inf (probability @p p_inf), small times and finite times
 * near the top of the range.
 */
std::vector<Time>
edgeVolley(Rng &rng, size_t width, double p_inf)
{
    std::vector<Time> x(width);
    for (Time &t : x) {
        if (rng.chance(p_inf))
            t = INF;
        else
            t = rng.chance(0.5) ? nearTop(rng) : Time(rng.below(20));
    }
    return x;
}

/**
 * Run @p body on one full block of @p prog and transpose the
 * slot-major rows: element l is volley l's value of every slot.
 */
std::vector<std::vector<Time>>
runBody(const EvalBody &body, const EvalProgram &prog, const Network &net,
        std::span<const std::vector<Time>> block)
{
    std::vector<Time> rows(prog.size() * kEvalBlockLanes);
    body.run(prog.view(), net.nodes(), block, rows.data());
    std::vector<std::vector<Time>> lanes(kEvalBlockLanes);
    for (size_t s = 0; s < prog.size(); ++s) {
        for (size_t l = 0; l < kEvalBlockLanes; ++l)
            lanes[l].push_back(rows[s * kEvalBlockLanes + l]);
    }
    return lanes;
}

/** Compiled evaluate/evaluateAll must equal the interpreter exactly. */
void
expectCompiledMatches(const Network &net, const std::vector<Time> &volley)
{
    EXPECT_EQ(net.evaluate(volley), net.evaluateInterpreted(volley));
    EXPECT_EQ(net.evaluateAll(volley),
              net.evaluateAllInterpreted(volley));
}

TEST(CompiledEval, MatchesInterpreterExhaustivelyOnSmallNets)
{
    Rng rng(0xc0de);
    for (uint64_t seed = 0; seed < 8; ++seed) {
        Rng net_rng(seed);
        Network net = richRandomNetwork(net_rng, 3, 12);
        testing::forAllVolleys(3, 3, [&](const std::vector<Time> &u) {
            expectCompiledMatches(net, u);
        });
    }
}

TEST(CompiledEval, MatchesInterpreterOnRandomDags)
{
    for (uint64_t seed = 0; seed < 40; ++seed) {
        Rng rng(0x9000 + seed);
        Network net = richRandomNetwork(rng, 1 + rng.below(6),
                                        5 + rng.below(40));
        for (size_t v = 0; v < 16; ++v) {
            // Half the volleys are inf-heavy to stress "no event"
            // propagation through fused edges.
            double p_inf = v % 2 == 0 ? 0.2 : 0.7;
            expectCompiledMatches(
                net, randomVolley(rng, net.numInputs(), 20, p_inf));
        }
    }
}

TEST(CompiledEval, ConfigMutationNeverStalesThePlan)
{
    Network net(2);
    NodeId c = net.config(Time(3));
    NodeId gated = net.lt(net.min(net.input(0), net.input(1)), c);
    net.markOutput(gated);
    net.markOutput(c);

    Rng rng(0xfeed);
    for (size_t round = 0; round < 20; ++round) {
        net.setConfig(c, rng.chance(0.3) ? INF : Time(rng.below(10)));
        // setConfig must not recompile: config values are read live.
        if (round > 0) {
            EXPECT_TRUE(net.isCompiled());
        }
        expectCompiledMatches(net, randomVolley(rng, 2, 10));
    }
}

TEST(CompiledEval, StructuralMutationInvalidatesThePlan)
{
    Rng rng(0xabcd);
    Network net = richRandomNetwork(rng, 3, 10);
    net.evaluate(randomVolley(rng, 3, 10));
    EXPECT_TRUE(net.isCompiled());

    net.inc(net.input(0), 2);
    EXPECT_FALSE(net.isCompiled());
    net.markOutput(static_cast<NodeId>(net.size() - 1));
    EXPECT_FALSE(net.isCompiled());
    expectCompiledMatches(net, randomVolley(rng, 3, 10));

    // append() splices foreign nodes in; the plan must follow suit.
    Network sub(1);
    sub.markOutput(sub.inc(sub.input(0), 5));
    net.evaluate(randomVolley(rng, 3, 10));
    EXPECT_TRUE(net.isCompiled());
    NodeId in0 = net.input(0);
    net.markOutput(net.append(sub, {&in0, 1})[0]);
    EXPECT_FALSE(net.isCompiled());
    expectCompiledMatches(net, randomVolley(rng, 3, 10));
}

TEST(CompiledEval, BatchMatchesSerialAcrossThreadCounts)
{
    Rng rng(0xbead);
    Network net = richRandomNetwork(rng, 4, 30);

    std::vector<std::vector<Time>> batch;
    for (size_t i = 0; i < 64; ++i)
        batch.push_back(randomVolley(rng, 4, 15, i % 3 == 0 ? 0.6 : 0.2));

    std::vector<std::vector<Time>> expected;
    for (const auto &volley : batch)
        expected.push_back(net.evaluateInterpreted(volley));

    for (size_t nthreads : {1, 2, 4, 8})
        EXPECT_EQ(net.evaluateBatch(batch, nthreads), expected)
            << "nthreads=" << nthreads;
}

TEST(CompiledEval, EveryBodyMatchesTheInterpreterOnFullBlocks)
{
    const std::span<const EvalBody> bodies = evalBodies();
    ASSERT_FALSE(bodies.empty());
    EXPECT_STREQ(bodies.front().name, evalSimdBodyName());
    EXPECT_STREQ(bodies.back().name, "scalar");
#if defined(__x86_64__)
    // Every x86 body the CPU supports is in the table, none skipped.
    auto listed = [&](const char *name) {
        return std::any_of(bodies.begin(), bodies.end(),
                           [&](const EvalBody &b) {
                               return std::strcmp(b.name, name) == 0;
                           });
    };
    if (__builtin_cpu_supports("avx2")) {
        EXPECT_TRUE(listed("avx2"));
    }
    if (__builtin_cpu_supports("avx512f")) {
        EXPECT_TRUE(listed("avx512"));
    }
#endif

    // The full program (slot == NodeId, inc nodes kept as delayed
    // 1-ary mins) is checked slot by slot; the live program, whose
    // inc chains fold into edge delays of 2^63 and more, by output.
    size_t huge_edges = 0;
    for (uint64_t seed = 0; seed < 40; ++seed) {
        Rng rng(0xb0d1e5 + seed);
        Network net = richRandomNetwork(rng, 1 + rng.below(6),
                                        5 + rng.below(40), true);
        const EvalPlan &plan = net.compile();
        for (Time::rep d : plan.live.argDelay)
            huge_edges += d >= uint64_t{1} << 63;
        for (size_t blk = 0; blk < 4; ++blk) {
            std::vector<std::vector<Time>> block;
            for (size_t l = 0; l < kEvalBlockLanes; ++l) {
                block.push_back(edgeVolley(rng, net.numInputs(),
                                           blk % 2 == 0 ? 0.2 : 0.7));
            }
            for (const EvalBody &body : bodies) {
                const auto full = runBody(body, plan.full, net, block);
                const auto live = runBody(body, plan.live, net, block);
                for (size_t l = 0; l < kEvalBlockLanes; ++l) {
                    EXPECT_EQ(full[l], net.evaluateAllInterpreted(block[l]))
                        << body.name << " seed " << seed << " lane " << l;
                    std::vector<Time> out;
                    for (uint32_t s : plan.live.outSlot)
                        out.push_back(live[l][s]);
                    EXPECT_EQ(out, net.evaluateInterpreted(block[l]))
                        << body.name << " seed " << seed << " lane " << l;
                }
            }
        }
    }
    EXPECT_GT(huge_edges, 0u);
}

TEST(CompiledEval, BatchTailsMatchTheInterpreter)
{
    // Sizes 1-17 cover a lone tail block, one full block, and a full
    // block followed by every tail width.
    for (uint64_t seed = 0; seed < 4; ++seed) {
        Rng rng(0x7a11 + seed);
        Network net = richRandomNetwork(rng, 3, 30, true);
        for (size_t n = 1; n <= 17; ++n) {
            std::vector<std::vector<Time>> batch;
            std::vector<std::vector<Time>> expected;
            for (size_t i = 0; i < n; ++i) {
                batch.push_back(edgeVolley(rng, 3, 0.4));
                expected.push_back(net.evaluateInterpreted(batch.back()));
            }
            for (size_t nthreads : {1, 4}) {
                EXPECT_EQ(net.evaluateBatch(batch, nthreads), expected)
                    << "seed " << seed << " size " << n << " threads "
                    << nthreads;
            }
        }
    }
}

TEST(CompiledEval, BatchArityErrorNamesTheVolley)
{
    Rng rng(0xa417);
    Network net = richRandomNetwork(rng, 4, 20);
    std::vector<std::vector<Time>> batch;
    for (size_t i = 0; i < 20; ++i)
        batch.push_back(randomVolley(rng, 4, 10));
    batch[13].pop_back();
    try {
        net.evaluateBatch(batch, 1);
        ADD_FAILURE() << "a short volley must reject the batch";
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ(e.what(), "Network: evaluateBatch volley 13 has 3 "
                               "inputs, network has 4");
    }
    try {
        net.evaluate(batch[13]);
        ADD_FAILURE() << "a short volley must be rejected";
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ(e.what(),
                     "Network: evaluate volley has 3 inputs, network has 4");
    }
}

TEST(CompiledEval, DeadNodesAreEliminated)
{
    Network net(2);
    NodeId used = net.min(net.input(0), net.input(1));
    net.max(net.input(0), net.input(1)); // dead
    net.lt(net.input(0), net.input(1));  // dead
    net.markOutput(used);

    const EvalPlan &plan = net.compile();
    EXPECT_EQ(plan.numNodes, 5u);
    EXPECT_EQ(plan.deadNodes, 2u);
    EXPECT_EQ(plan.live.size(), 3u);
    EXPECT_EQ(plan.full.size(), 5u);
    expectCompiledMatches(net, V({4, 7}));
}

TEST(CompiledEval, IncChainsFuseIntoEdgeDelays)
{
    Network net(1);
    NodeId id = net.input(0);
    for (Time::rep d = 1; d <= 4; ++d)
        id = net.inc(id, d);
    NodeId out = net.min(id, net.input(0));
    net.markOutput(out);

    const EvalPlan &plan = net.compile();
    // All four inc nodes fold into one edge delay of 1+2+3+4.
    EXPECT_EQ(plan.fusedIncs, 4u);
    EXPECT_EQ(plan.deadNodes, 4u);
    EXPECT_EQ(plan.live.size(), 2u);
    EXPECT_EQ(net.evaluate(V({5}))[0], Time(5));
    expectCompiledMatches(net, V({0}));
    expectCompiledMatches(net, V({kNo}));
}

TEST(CompiledEval, IncFusionSaturatesExactlyLikeTheInterpreter)
{
    const Time::rep huge = ~uint64_t{0} - 3;
    Network net(1);
    NodeId id = net.inc(net.inc(net.input(0), huge), huge);
    net.markOutput(id);

    // Both the chained and the folded form must saturate to inf.
    std::vector<Time> big = {Time(huge)};
    expectCompiledMatches(net, big);
    EXPECT_EQ(net.evaluate(big)[0], INF);
    expectCompiledMatches(net, V({0}));
    expectCompiledMatches(net, V({3}));
    expectCompiledMatches(net, V({kNo}));
}

TEST(CompiledEval, OutputIncTapsStayLive)
{
    Network net(1);
    NodeId tap = net.inc(net.input(0), 7);
    net.markOutput(tap); // an inc that IS an output must survive DCE
    expectCompiledMatches(net, V({2}));
    expectCompiledMatches(net, V({kNo}));
    EXPECT_EQ(net.evaluate(V({2}))[0], Time(9));
}

TEST(CompiledEval, BuildersShipPrecompiledNetworks)
{
    Network sorter = bitonicSortNetwork(6);
    EXPECT_TRUE(sorter.isCompiled());

    std::vector<ResponseFunction> synapses(
        4, ResponseFunction::step(2));
    Network srm0 = buildSrm0Network(synapses, 3);
    EXPECT_TRUE(srm0.isCompiled());

    Rng rng(0x50f7);
    for (size_t v = 0; v < 8; ++v) {
        expectCompiledMatches(sorter, randomVolley(rng, 6, 12));
        expectCompiledMatches(srm0, randomVolley(rng, 4, 12));
    }
}

TEST(CompiledEval, CopiesAndMovesKeepPlansCoherent)
{
    Rng rng(0x7007);
    Network net = richRandomNetwork(rng, 3, 15);
    net.evaluate(randomVolley(rng, 3, 10));
    ASSERT_TRUE(net.isCompiled());

    Network copy = net; // copies start uncompiled
    EXPECT_FALSE(copy.isCompiled());
    expectCompiledMatches(copy, randomVolley(rng, 3, 10));

    Network moved = std::move(net); // moves steal the plan
    EXPECT_TRUE(moved.isCompiled());
    expectCompiledMatches(moved, randomVolley(rng, 3, 10));
}

} // namespace
} // namespace st
