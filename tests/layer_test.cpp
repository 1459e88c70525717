/**
 * @file
 * Tests for TNN columns (paper Sec. II.C / IV): quantized-weight neuron
 * models, raw firing, WTA-inhibited processing, and WTA-learning
 * trainSteps — including the Guyonneau-style property that a trained
 * neuron tunes to the earliest spikes of a repeated pattern.
 */

#include <gtest/gtest.h>

#include <limits>

#include "test_helpers.hpp"
#include "tnn/layer.hpp"

namespace st {
namespace {

using testing::V;
using testing::kNo;

ColumnParams
smallParams()
{
    ColumnParams p;
    p.numInputs = 4;
    p.numNeurons = 3;
    p.threshold = 4;
    p.maxWeight = 7;
    p.shape = ResponseShape::Step;
    p.seed = 1234;
    return p;
}

TEST(Column, RejectsBadConfig)
{
    ColumnParams p = smallParams();
    p.numInputs = 0;
    EXPECT_THROW(Column{p}, std::invalid_argument);
    p = smallParams();
    p.numNeurons = 0;
    EXPECT_THROW(Column{p}, std::invalid_argument);
    p = smallParams();
    p.threshold = 0;
    EXPECT_THROW(Column{p}, std::invalid_argument);
}

TEST(Column, InitialWeightsWithinJitterBand)
{
    ColumnParams p = smallParams();
    p.initWeight = 0.5;
    p.initJitter = 0.2;
    Column col(p);
    for (size_t j = 0; j < p.numNeurons; ++j) {
        for (double w : col.weights(j)) {
            EXPECT_GE(w, 0.3 - 1e-9);
            EXPECT_LE(w, 0.7 + 1e-9);
        }
    }
}

TEST(Column, SameSeedSameWeights)
{
    Column a(smallParams()), b(smallParams());
    for (size_t j = 0; j < 3; ++j)
        EXPECT_EQ(a.weights(j), b.weights(j));
}

TEST(Column, NeuronModelUsesQuantizedWeights)
{
    ColumnParams p = smallParams();
    Column col(p);
    col.setWeights(0, {1.0, 0.0, 1.0, 0.0});
    auto dw = col.discreteWeights(0);
    EXPECT_EQ(dw, (std::vector<size_t>{7, 0, 7, 0}));
    Srm0Neuron model = col.neuronModel(0);
    // Weight-0 synapses contribute nothing: spikes on lines 1 and 3
    // alone never fire the neuron.
    EXPECT_EQ(model.fire(V({kNo, 0, kNo, 0})), INF);
    // A single weight-7 step crosses threshold 4 immediately.
    EXPECT_EQ(model.fire(V({2, kNo, kNo, kNo})), 2_t);
}

TEST(Column, RawFireTimesMatchPerNeuronModels)
{
    Column col(smallParams());
    Rng rng(9);
    for (int s = 0; s < 20; ++s) {
        auto x = testing::randomVolley(rng, 4, 6, 0.2);
        auto raw = col.rawFireTimes(x);
        ASSERT_EQ(raw.size(), 3u);
        for (size_t j = 0; j < 3; ++j)
            EXPECT_EQ(raw[j], col.neuronModel(j).fire(x));
    }
}

size_t
finiteCount(const Volley &v)
{
    size_t n = 0;
    for (Time t : v)
        n += t.isFinite();
    return n;
}

TEST(Column, ProcessAppliesInhibition)
{
    ColumnParams p = smallParams();
    p.wtaTau = 1;
    p.wtaK = 1;
    Column col(p);
    // Make neuron 1 much stronger so it fires strictly first on a
    // staggered volley (weak neurons need several spikes to reach
    // threshold, so they fire later).
    col.setWeights(0, {0.2, 0.2, 0.2, 0.2});
    col.setWeights(1, {1.0, 1.0, 1.0, 1.0});
    col.setWeights(2, {0.2, 0.2, 0.2, 0.2});
    auto out = col.process(V({0, 1, 2, 3}));
    EXPECT_TRUE(out[1].isFinite());
    EXPECT_EQ(out[0], INF);
    EXPECT_EQ(out[2], INF);
    EXPECT_EQ(finiteCount(out), 1u);
}

TEST(Column, ProcessWithoutInhibition)
{
    ColumnParams p = smallParams();
    p.wtaTau = 0;
    p.wtaK = 0;
    Column col(p);
    auto raw = col.rawFireTimes(V({0, 0, 0, 0}));
    auto out = col.process(V({0, 0, 0, 0}));
    EXPECT_EQ(out, raw);
}

TEST(Column, TrainStepPicksEarliestWinner)
{
    ColumnParams p = smallParams();
    Column col(p);
    col.setWeights(0, {0.3, 0.3, 0.3, 0.3});
    col.setWeights(1, {1.0, 1.0, 1.0, 1.0}); // fires earliest
    col.setWeights(2, {0.3, 0.3, 0.3, 0.3});
    SimplifiedStdp rule(0.05, 0.04);
    auto result = col.trainStep(V({0, 1, 2, 3}), rule);
    ASSERT_TRUE(result.winner.has_value());
    EXPECT_EQ(*result.winner, 1u);
    EXPECT_TRUE(result.spikeTime.isFinite());
}

TEST(Column, TrainStepWithNoFiringLeavesWeights)
{
    ColumnParams p = smallParams();
    p.threshold = 100; // unreachable
    Column col(p);
    auto before = col.weights(0);
    SimplifiedStdp rule(0.05, 0.04);
    auto result = col.trainStep(V({0, 0, 0, 0}), rule);
    EXPECT_FALSE(result.winner.has_value());
    EXPECT_EQ(col.weights(0), before);
}

TEST(Column, TrainStepOnlyUpdatesWinner)
{
    Column col(smallParams());
    // 0.9 (not 1.0) so the multiplicative rule still has headroom.
    col.setWeights(1, {0.9, 0.9, 0.9, 0.9});
    auto w0 = col.weights(0);
    auto w2 = col.weights(2);
    SimplifiedStdp rule(0.05, 0.04);
    auto result = col.trainStep(V({0, 1, 2, 3}), rule);
    ASSERT_TRUE(result.winner.has_value());
    EXPECT_EQ(*result.winner, 1u);
    EXPECT_EQ(col.weights(0), w0);
    EXPECT_EQ(col.weights(2), w2);
    EXPECT_NE(col.weights(1), (std::vector<double>(4, 0.9)));
}

TEST(Column, NeuronTunesToRepeatedPattern)
{
    // Guyonneau [21]: with repeated presentations, the winning neuron's
    // weights strengthen on the pattern's early lines and weaken on
    // silent lines.
    ColumnParams p;
    p.numInputs = 6;
    p.numNeurons = 1;
    p.threshold = 3;
    p.maxWeight = 7;
    p.seed = 5;
    Column col(p);
    SimplifiedStdp rule(0.08, 0.05);
    Volley pattern = V({0, 0, 1, kNo, kNo, kNo});
    for (int i = 0; i < 200; ++i)
        col.trainStep(pattern, rule);
    const auto &w = col.weights(0);
    EXPECT_GT(w[0], 0.9);
    EXPECT_GT(w[1], 0.9);
    EXPECT_LT(w[3], 0.1);
    EXPECT_LT(w[4], 0.1);
}

TEST(Column, BiexponentialShapeColumnsFire)
{
    ColumnParams p = smallParams();
    p.shape = ResponseShape::Biexponential;
    p.threshold = 3;
    Column col(p);
    // Weak synapses (discrete weight 2, peak 2 < theta): only
    // coincident spikes can cross the threshold.
    col.setWeights(0, {0.3, 0.3, 0.3, 0.3});
    auto raw = col.rawFireTimes(V({0, 0, 0, 0}));
    EXPECT_TRUE(raw[0].isFinite());
    // Leak: spikes spread far apart do not accumulate.
    EXPECT_EQ(col.neuronModel(0).fire(V({0, 50, 100, 150})), INF);
}

TEST(Column, PiecewiseLinearShapeColumnsFire)
{
    ColumnParams p = smallParams();
    p.shape = ResponseShape::PiecewiseLinear;
    p.threshold = 3;
    Column col(p);
    col.setWeights(0, {1.0, 1.0, 1.0, 1.0});
    EXPECT_TRUE(col.rawFireTimes(V({0, 0, 0, 0}))[0].isFinite());
}

TEST(Column, FamilyIndexedByDiscreteWeight)
{
    Column col(smallParams());
    const auto &family = col.family();
    ASSERT_EQ(family.size(), 8u); // weights 0..7
    EXPECT_TRUE(family[0].isZero());
    EXPECT_EQ(family[5].finalValue(), 5);
}

TEST(Column, FatigueExcludesRunawayWinners)
{
    ColumnParams p = smallParams();
    p.fatigue = 3;
    Column col(p);
    // Neuron 1 dominates; without fatigue it would win every round.
    col.setWeights(0, {0.6, 0.6, 0.6, 0.6});
    col.setWeights(1, {0.9, 0.9, 0.9, 0.9});
    col.setWeights(2, {0.6, 0.6, 0.6, 0.6});
    SimplifiedStdp rule(0.01, 0.01);
    for (int i = 0; i < 30; ++i)
        col.trainStep(V({0, 1, 2, 3}), rule);
    // The lead is capped: others got to win too.
    size_t min_wins = std::min({col.winCount(0), col.winCount(1),
                                col.winCount(2)});
    size_t max_wins = std::max({col.winCount(0), col.winCount(1),
                                col.winCount(2)});
    EXPECT_LE(max_wins - min_wins, p.fatigue + 1);
    EXPECT_GT(col.winCount(0) + col.winCount(2), 0u);
}

TEST(Column, FatigueDisabledAllowsMonopoly)
{
    ColumnParams p = smallParams();
    p.fatigue = 0;
    Column col(p);
    col.setWeights(0, {0.3, 0.3, 0.3, 0.3}); // fires late
    col.setWeights(1, {0.9, 0.9, 0.9, 0.9}); // fires first, always
    col.setWeights(2, {0.3, 0.3, 0.3, 0.3});
    SimplifiedStdp rule(0.0, 0.0); // freeze weights: pure competition
    for (int i = 0; i < 20; ++i)
        col.trainStep(V({0, 1, 2, 3}), rule);
    EXPECT_EQ(col.winCount(1), 20u);
    EXPECT_EQ(col.winCount(0), 0u);
}

TEST(Column, ResetFatigueClearsCounters)
{
    ColumnParams p = smallParams();
    Column col(p);
    SimplifiedStdp rule(0.01, 0.01);
    col.trainStep(V({0, 0, 0, 0}), rule);
    size_t total = col.winCount(0) + col.winCount(1) + col.winCount(2);
    EXPECT_EQ(total, 1u);
    col.resetFatigue();
    EXPECT_EQ(col.winCount(0), 0u);
    EXPECT_EQ(col.winCount(1), 0u);
    EXPECT_EQ(col.winCount(2), 0u);
}

TEST(Column, FatigueDoesNotAffectInference)
{
    ColumnParams p = smallParams();
    p.fatigue = 1;
    Column col(p);
    auto before = col.process(V({0, 1, 2, 3}));
    SimplifiedStdp rule(0.0, 0.0);
    for (int i = 0; i < 10; ++i)
        col.trainStep(V({0, 1, 2, 3}), rule);
    EXPECT_EQ(col.process(V({0, 1, 2, 3})), before);
}

TEST(Column, CopiesAreIndependent)
{
    Column a(smallParams());
    a.setWeights(0, {1.0, 1.0, 1.0, 1.0});
    (void)a.rawFireTimes(V({0, 0, 0, 0})); // fire before copying
    Column b = a;
    EXPECT_EQ(b.weights(0), a.weights(0));
    EXPECT_EQ(b.rawFireTimes(V({0, 1, 2, 3})),
              a.rawFireTimes(V({0, 1, 2, 3})));
    b.setWeights(0, {0.0, 0.0, 0.0, 0.0});
    EXPECT_NE(b.weights(0), a.weights(0)); // no shared state
    EXPECT_EQ(a.neuronModel(0).fire(V({2, kNo, kNo, kNo})), 2_t);
}

TEST(Column, CachedModelsTrackWeightChanges)
{
    // The level table must never serve stale neurons.
    Column col(smallParams());
    col.setWeights(0, {1.0, 1.0, 1.0, 1.0});
    EXPECT_TRUE(col.rawFireTimes(V({0, 0, 0, 0}))[0].isFinite());
    col.setWeights(0, {0.0, 0.0, 0.0, 0.0});
    EXPECT_EQ(col.rawFireTimes(V({0, 0, 0, 0}))[0], INF);
    // Training updates rebuild rows too: repeated potentiation of the
    // early line moves the only live neuron's fire time from t=1
    // (needs two spikes) to t=0 (the strengthened first spike alone).
    col.setWeights(0, {0.0, 0.0, 0.0, 0.0});
    col.setWeights(1, {0.4, 0.4, 0.4, 0.4}); // discrete 3 < theta 4
    col.setWeights(2, {0.0, 0.0, 0.0, 0.0});
    Volley x = V({0, 1, 9, 9});
    EXPECT_EQ(col.rawFireTimes(x)[1], 1_t);
    SimplifiedStdp rule(0.9, 0.9);
    for (int i = 0; i < 6; ++i)
        col.trainStep(x, rule);
    EXPECT_EQ(col.rawFireTimes(x)[1], 0_t);
}

TEST(Column, FarApartSpikesFireAtTheClosedFormTime)
{
    // Two synapses at the top level, spikes a <= b. With theta above
    // one level but not two, a non-leaky column fires on the second
    // spike however late it comes; a leaky one never fires (the first
    // response has decayed by b, or the top of the time range cuts
    // the sum off). With theta under one response's peak, the first
    // spike crosses alone, at a plus the response's rise to theta
    // (saturating: inf past the top). The answer may not cost time in
    // proportion to b - a.
    constexpr Time::rep kTop = std::numeric_limits<Time::rep>::max() - 1;
    constexpr Time::rep kGap = Time::rep{1} << 40;
    const Time::rep kPairs[][2] = {
        {0, kGap}, {kTop - kGap, kTop}, {kTop - 3, kTop}, {kTop, kTop}};
    const ResponseShape kShapes[] = {ResponseShape::Step,
                                     ResponseShape::Biexponential,
                                     ResponseShape::PiecewiseLinear};
    const std::vector<std::vector<double>> top(32, {1.0, 1.0});
    for (ResponseShape shape : kShapes) {
        ColumnParams p;
        p.numInputs = 2;
        p.numNeurons = 32;
        p.maxWeight = 7;
        p.shape = shape;
        for (ResponseFunction::Amp theta : {12, 5, 1}) {
            p.threshold = theta;
            Column col(p, top);
            const ResponseFunction &r = col.family().back();
            Time::rep rise = 0;
            while (r.at(rise) < theta && rise <= r.tMax())
                ++rise;
            for (const auto &[a, b] : kPairs) {
                Time want = INF;
                if (theta <= r.peak())
                    want = Time(a) + rise;
                else if (shape == ResponseShape::Step)
                    want = Time(b);
                const std::vector<Time> raw = col.rawFireTimes(V({a, b}));
                for (Time t : raw)
                    ASSERT_EQ(t, want) << "theta " << theta << " spikes "
                                       << a << ", " << b;
            }
        }
    }
}

TEST(Column, SetWeightsValidatesArity)
{
    Column col(smallParams());
    EXPECT_THROW(col.setWeights(0, {0.5}), std::invalid_argument);
    EXPECT_THROW(col.weights(99), std::out_of_range);
}

} // namespace
} // namespace st
