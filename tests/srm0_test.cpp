/**
 * @file
 * Tests for the SRM0 neuron (paper Figs. 1, 11, 12).
 *
 * The reproduction's central cross-domain check lives here: the
 * Fig. 12 construction (response fanouts -> bitonic sorters -> lt rank
 * comparison -> min) must compute exactly the same spike time as the
 * independent numerical SRM0 reference (Fig. 1) on every input volley —
 * excitatory, inhibitory, leaky and non-leaky responses alike.
 */

#include <gtest/gtest.h>

#include <limits>

#include "core/properties.hpp"
#include "neuron/srm0_network.hpp"
#include "neuron/srm0_reference.hpp"
#include "test_helpers.hpp"

namespace st {
namespace {

using testing::V;
using testing::kNo;
using Amp = ResponseFunction::Amp;

TEST(Srm0Reference, RejectsBadConfig)
{
    EXPECT_THROW(Srm0Neuron({}, 1), std::invalid_argument);
    EXPECT_THROW(Srm0Neuron({ResponseFunction::step(1)}, 0),
                 std::invalid_argument);
}

TEST(Srm0Reference, SingleStepSynapseFiresImmediately)
{
    Srm0Neuron n({ResponseFunction::step(2)}, 2);
    EXPECT_EQ(n.fire(V({5})), 5_t);
    EXPECT_EQ(n.fire(V({kNo})), INF);
}

TEST(Srm0Reference, ThresholdAboveReachableIsNeverCrossed)
{
    Srm0Neuron n({ResponseFunction::step(1), ResponseFunction::step(1)},
                 3);
    EXPECT_EQ(n.fire(V({0, 0})), INF);
}

TEST(Srm0Reference, NonLeakyIntegrationAccumulates)
{
    // Two unit steps: threshold 2 crossed when the second input lands.
    Srm0Neuron n({ResponseFunction::step(1), ResponseFunction::step(1)},
                 2);
    EXPECT_EQ(n.fire(V({1, 6})), 6_t);
    EXPECT_EQ(n.fire(V({6, 1})), 6_t);
    EXPECT_EQ(n.fire(V({3, 3})), 3_t);
}

TEST(Srm0Reference, LeakyResponseForgetsOldInputs)
{
    // Biexponential responses decay: two spikes far apart never push the
    // potential to 2 x peak; close together they do.
    ResponseFunction r = ResponseFunction::biexponential(3, 4.0, 1.0);
    Srm0Neuron n({r, r}, 4);
    EXPECT_TRUE(n.fire(V({0, 1})).isFinite());
    EXPECT_EQ(n.fire(V({0, 40})), INF);
}

TEST(Srm0Reference, InhibitionDelaysOrBlocksFiring)
{
    ResponseFunction exc = ResponseFunction::step(2);
    ResponseFunction inh = ResponseFunction::step(2).negated();
    Srm0Neuron n({exc, exc, inh}, 3);
    // Without inhibition the two excitatory steps (4 units) cross 3.
    EXPECT_EQ(n.fire(V({0, 0, kNo})), 0_t);
    // Inhibition arriving first keeps the potential at 2 < 3: no spike.
    EXPECT_EQ(n.fire(V({1, 1, 0})), INF);
    // Inhibition arriving after the crossing does not retract the spike.
    EXPECT_EQ(n.fire(V({0, 0, 2})), 0_t);
}

TEST(Srm0Reference, PotentialTrajectory)
{
    ResponseFunction r = ResponseFunction::piecewiseLinear(2, 1, 1);
    Srm0Neuron n({r}, 5);
    auto traj = n.trajectory(V({0}));
    ASSERT_EQ(traj.size(), 3u); // t = 0, 1, 2
    EXPECT_EQ(traj[0], 0);
    EXPECT_EQ(traj[1], 2);
    EXPECT_EQ(traj[2], 0);
    EXPECT_TRUE(n.trajectory(V({kNo})).empty());
}

TEST(Srm0Reference, PotentialAtSumsShiftedResponses)
{
    ResponseFunction r = ResponseFunction::step(1);
    Srm0Neuron n({r, r}, 2);
    EXPECT_EQ(n.potentialAt(V({1, 3}), 0), 0);
    EXPECT_EQ(n.potentialAt(V({1, 3}), 1), 1);
    EXPECT_EQ(n.potentialAt(V({1, 3}), 3), 2);
}

TEST(Srm0Reference, SpikeNearTheTopOfTheTimeRangeStillFires)
{
    // x + tMax wraps past 2^64 - 1; the scan must still run from x.
    constexpr Time::rep kTop = std::numeric_limits<Time::rep>::max() - 1;
    ResponseFunction r = ResponseFunction::biexponential(7, 4.0, 1.0);
    ASSERT_EQ(r.at(0), 0);
    ASSERT_GE(r.at(1), 1);
    Srm0Neuron n({r}, 1);
    EXPECT_EQ(n.fire(V({kTop - 2})), Time(kTop - 1));
    // The crossing would land on the inf pattern: no spike.
    EXPECT_EQ(n.fire(V({kTop})), INF);
}

TEST(Srm0Reference, SettleOnTheInfPatternEndsTheScan)
{
    // x + tMax == 2^64 - 1 exactly, and theta is never reached: the
    // scan must stop at the largest finite time instead of wrapping.
    ResponseFunction r = ResponseFunction::biexponential(2, 4.0, 1.0);
    const Time::rep x = std::numeric_limits<Time::rep>::max() - r.tMax();
    Srm0Neuron n({r, r}, 100);
    EXPECT_EQ(n.fire(V({x, kNo})), INF);
    EXPECT_EQ(n.trajectory(V({x, kNo})).size(), r.tMax());
}

TEST(Srm0Network, MatchesReferenceOnStepSynapses)
{
    std::vector<ResponseFunction> syn{ResponseFunction::step(1),
                                      ResponseFunction::step(2),
                                      ResponseFunction::step(1)};
    Srm0Neuron ref(syn, 3);
    Network net = buildSrm0Network(syn, 3);
    testing::forAllVolleys(3, 4, [&](const std::vector<Time> &u) {
        EXPECT_EQ(net.evaluate(u)[0], ref.fire(u))
            << "at " << volleyStr(u);
    });
}

TEST(Srm0Network, MatchesReferenceOnBiexponential)
{
    ResponseFunction r = ResponseFunction::biexponential(3, 4.0, 1.0);
    std::vector<ResponseFunction> syn{r, r, r};
    Srm0Neuron ref(syn, 5);
    Network net = buildSrm0Network(syn, 5);
    testing::forAllVolleys(3, 5, [&](const std::vector<Time> &u) {
        EXPECT_EQ(net.evaluate(u)[0], ref.fire(u))
            << "at " << volleyStr(u);
    });
}

TEST(Srm0Network, MatchesReferenceWithInhibitorySynapse)
{
    ResponseFunction exc = ResponseFunction::biexponential(3, 4.0, 1.0);
    ResponseFunction inh = exc.negated();
    std::vector<ResponseFunction> syn{exc, exc, inh};
    Srm0Neuron ref(syn, 3);
    Network net = buildSrm0Network(syn, 3);
    testing::forAllVolleys(3, 5, [&](const std::vector<Time> &u) {
        EXPECT_EQ(net.evaluate(u)[0], ref.fire(u))
            << "at " << volleyStr(u);
    });
}

/** Random-neuron equivalence sweep, seed-parameterized. */
class Srm0Equivalence : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(Srm0Equivalence, NetworkEqualsReferenceOnRandomNeurons)
{
    Rng rng(GetParam());
    // The lifts draw from their own stream, so rng yields the same
    // neurons and volleys as without them.
    Rng lifts(GetParam() + 1);
    for (int trial = 0; trial < 8; ++trial) {
        size_t arity = 2 + rng.below(3);
        std::vector<ResponseFunction> syn;
        for (size_t i = 0; i < arity; ++i) {
            switch (rng.below(4)) {
              case 0:
                syn.push_back(ResponseFunction::step(
                    static_cast<Amp>(1 + rng.below(3))));
                break;
              case 1:
                syn.push_back(ResponseFunction::biexponential(
                    static_cast<Amp>(1 + rng.below(4)), 4.0, 1.0));
                break;
              case 2:
                syn.push_back(ResponseFunction::piecewiseLinear(
                    static_cast<Amp>(1 + rng.below(4)),
                    1 + rng.below(3), 1 + rng.below(4)));
                break;
              default:
                syn.push_back(
                    ResponseFunction::biexponential(
                        static_cast<Amp>(1 + rng.below(3)), 4.0, 1.0)
                        .negated());
                break;
            }
        }
        auto theta = static_cast<Amp>(1 + rng.below(5));
        Srm0Neuron ref(syn, theta);
        Network net = buildSrm0Network(syn, theta);
        for (int s = 0; s < 60; ++s) {
            auto x = testing::randomVolley(rng, arity, 12, 0.2);
            EXPECT_EQ(net.evaluate(x)[0], ref.fire(x))
                << "theta=" << theta << " at " << volleyStr(x);
            // The same volley pushed against the top of the time
            // range, where responses run past the last finite time.
            const Time::rep lift =
                std::numeric_limits<Time::rep>::max() - 13 - lifts.below(8);
            for (Time &t : x)
                t = t + lift;
            EXPECT_EQ(net.evaluate(x)[0], ref.fire(x))
                << "theta=" << theta << " at " << volleyStr(x);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Srm0Equivalence,
                         ::testing::Values(11, 22, 33, 44));

TEST(Srm0Network, UnreachableThresholdYieldsConstantInf)
{
    std::vector<ResponseFunction> syn{ResponseFunction::step(1)};
    Network net = buildSrm0Network(syn, 5);
    EXPECT_EQ(net.evaluate(V({0}))[0], INF);
    EXPECT_EQ(net.evaluate(V({kNo}))[0], INF);
}

TEST(Srm0Network, IsCausalAndInvariant)
{
    ResponseFunction r = ResponseFunction::biexponential(2, 4.0, 1.0);
    Network net = buildSrm0Network({r, r}, 2);
    StFn fn = fnOf(net);
    EXPECT_TRUE(checkCausality(2, 5, fn).holds);
    EXPECT_TRUE(checkInvariance(2, 5, fn).holds);
}

TEST(Srm0Network, ResponseFanoutEmitsTaps)
{
    Network net(1);
    std::vector<NodeId> ups, downs;
    ResponseFunction r({0, 2, 2, 1}); // +2 at t=1, -1 at t=3
    emitResponseFanout(net, net.input(0), r, ups, downs);
    ASSERT_EQ(ups.size(), 2u);
    ASSERT_EQ(downs.size(), 1u);
    for (NodeId id : ups)
        net.markOutput(id);
    for (NodeId id : downs)
        net.markOutput(id);
    EXPECT_EQ(net.evaluate(V({10})), V({11, 11, 13}));
}

TEST(Srm0Network, StatsAccountForConstruction)
{
    ResponseFunction r = ResponseFunction::biexponential(3, 4.0, 1.0);
    std::vector<ResponseFunction> syn{r, r};
    auto stats = srm0NetworkStats(syn, 2);
    EXPECT_EQ(stats.upTaps, 2 * r.upSteps().size());
    EXPECT_EQ(stats.downTaps, 2 * r.downSteps().size());
    EXPECT_GT(stats.comparators, 0u);
    EXPECT_EQ(stats.ltBlocks, stats.upTaps - 2 + 1);
    EXPECT_GT(stats.totalNodes, stats.upTaps + stats.downTaps);
    EXPECT_GT(stats.depth, 3u);
}

TEST(Srm0Network, RejectsBadConfig)
{
    EXPECT_THROW(buildSrm0Network({}, 1), std::invalid_argument);
    EXPECT_THROW(buildSrm0Network({ResponseFunction::step(1)}, 0),
                 std::invalid_argument);
}

} // namespace
} // namespace st
