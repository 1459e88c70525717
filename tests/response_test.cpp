/**
 * @file
 * Tests for response functions (paper Fig. 2 / Fig. 11): discretization
 * of the biexponential and piecewise-linear shapes, the step (non-leaky)
 * synapse, and the decomposition into unit up/down steps that drives the
 * Fig. 11 fanout construction.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "neuron/response.hpp"

namespace st {
namespace {

using Amp = ResponseFunction::Amp;
using Step = ResponseFunction::Step;

/** Reconstruct A(t) from up/down steps; must reproduce at(t). */
Amp
amplitudeFromSteps(const ResponseFunction &r, Time::rep t)
{
    Amp a = 0;
    for (Time::rep u : r.upSteps()) {
        if (u <= t)
            ++a;
    }
    for (Time::rep d : r.downSteps()) {
        if (d <= t)
            --a;
    }
    return a;
}

/** Reconstruct A(t) from the (offset, delta) jumps of steps(). */
Amp
amplitudeFromJumps(const ResponseFunction &r, Time::rep t)
{
    Amp a = 0;
    for (const Step &s : r.steps()) {
        if (s.offset <= t)
            a += s.delta;
    }
    return a;
}

TEST(Response, EmptyResponseIsZero)
{
    ResponseFunction r;
    EXPECT_TRUE(r.isZero());
    EXPECT_EQ(r.at(0), 0);
    EXPECT_EQ(r.at(100), 0);
    EXPECT_EQ(r.peak(), 0);
    EXPECT_EQ(r.tMax(), 0u);
    EXPECT_TRUE(r.upSteps().empty());
    EXPECT_TRUE(r.downSteps().empty());
    EXPECT_TRUE(r.steps().empty());
}

TEST(Response, TrimsFlatTailToCanonicalForm)
{
    ResponseFunction r({0, 2, 2, 2, 2});
    EXPECT_EQ(r.samples(), (std::vector<Amp>{0, 2}));
    EXPECT_EQ(r.at(1), 2);
    EXPECT_EQ(r.at(50), 2); // flat tail continues
    EXPECT_EQ(r.finalValue(), 2);
}

TEST(Response, AllZeroSamplesBecomeEmpty)
{
    ResponseFunction r({0, 0, 0});
    EXPECT_TRUE(r.isZero());
}

TEST(Response, StepResponse)
{
    ResponseFunction r = ResponseFunction::step(3);
    EXPECT_EQ(r.at(0), 3);
    EXPECT_EQ(r.at(10), 3);
    EXPECT_EQ(r.finalValue(), 3);
    EXPECT_EQ(r.upSteps(), (std::vector<Time::rep>{0, 0, 0}));
    EXPECT_TRUE(r.downSteps().empty());
}

TEST(Response, DelayedStepResponse)
{
    ResponseFunction r = ResponseFunction::step(2, 4);
    EXPECT_EQ(r.at(3), 0);
    EXPECT_EQ(r.at(4), 2);
    EXPECT_EQ(r.upSteps(), (std::vector<Time::rep>{4, 4}));
}

TEST(Response, ZeroWeightStepIsEmpty)
{
    EXPECT_TRUE(ResponseFunction::step(0).isZero());
}

TEST(Response, BiexponentialShape)
{
    ResponseFunction r = ResponseFunction::biexponential(5, 4.0, 1.0);
    // Rises from 0, peaks at the requested amplitude, decays to 0.
    EXPECT_EQ(r.at(0), 0);
    EXPECT_EQ(r.peak(), 5);
    EXPECT_EQ(r.finalValue(), 0);
    EXPECT_EQ(r.trough(), 0); // purely excitatory
    EXPECT_GT(r.tMax(), 2u);  // takes a while to settle
    // Unimodal-ish: rises before the peak time, decays after.
    Amp peak_val = 0;
    for (Time::rep t = 0; t <= r.tMax(); ++t)
        peak_val = std::max(peak_val, r.at(t));
    EXPECT_EQ(peak_val, 5);
}

TEST(Response, BiexponentialStepsBalanceToZero)
{
    ResponseFunction r = ResponseFunction::biexponential(5, 4.0, 1.0);
    // Decays back to 0 => equal numbers of up and down steps.
    EXPECT_EQ(r.upSteps().size(), r.downSteps().size());
    EXPECT_GE(r.upSteps().size(), 5u); // reached amplitude 5
}

TEST(Response, BiexponentialRejectsBadTaus)
{
    EXPECT_THROW(ResponseFunction::biexponential(3, 1.0, 4.0),
                 std::invalid_argument);
    EXPECT_THROW(ResponseFunction::biexponential(3, 2.0, 2.0),
                 std::invalid_argument);
}

TEST(Response, PiecewiseLinearShape)
{
    // Maass's Fig. 2b approximation: up over 2 steps, down over 4.
    ResponseFunction r = ResponseFunction::piecewiseLinear(4, 2, 4);
    EXPECT_EQ(r.at(0), 0);
    EXPECT_EQ(r.at(2), 4); // peak at end of rise
    EXPECT_EQ(r.at(6), 0); // back to zero after the fall
    EXPECT_EQ(r.peak(), 4);
    EXPECT_EQ(r.finalValue(), 0);
}

TEST(Response, PiecewiseLinearRejectsZeroLengths)
{
    EXPECT_THROW(ResponseFunction::piecewiseLinear(4, 0, 3),
                 std::invalid_argument);
    EXPECT_THROW(ResponseFunction::piecewiseLinear(4, 3, 0),
                 std::invalid_argument);
}

TEST(Response, UpDownStepsReconstructAmplitude)
{
    // The core Fig. 11 property: the fanout taps (unit steps) carry the
    // complete response information, and so do the jumps they split.
    for (const ResponseFunction &r :
         {ResponseFunction::biexponential(5, 4.0, 1.0),
          ResponseFunction::piecewiseLinear(3, 2, 5),
          ResponseFunction::step(4, 2),
          ResponseFunction({0, 2, 1, 3, 0, -1, 0})}) {
        for (Time::rep t = 0; t <= r.tMax() + 2; ++t) {
            EXPECT_EQ(amplitudeFromSteps(r, t), r.at(t)) << "t=" << t;
            EXPECT_EQ(amplitudeFromJumps(r, t), r.at(t)) << "t=" << t;
        }
    }
}

TEST(Response, StepsAreSortedWithMultiplicity)
{
    ResponseFunction r({0, 2, 2, 5});
    // +2 at t=1, +3 at t=3.
    EXPECT_EQ(r.upSteps(), (std::vector<Time::rep>{1, 1, 3, 3, 3}));
    EXPECT_TRUE(r.downSteps().empty());
    EXPECT_EQ(r.steps(), (std::vector<Step>{{1, 2}, {3, 3}}));
}

TEST(Response, NegatedModelsInhibition)
{
    ResponseFunction r = ResponseFunction::biexponential(4, 4.0, 1.0);
    ResponseFunction inhib = r.negated();
    EXPECT_EQ(inhib.trough(), -4);
    EXPECT_EQ(inhib.peak(), 0);
    EXPECT_EQ(inhib.upSteps().size(), r.downSteps().size());
    EXPECT_EQ(inhib.downSteps().size(), r.upSteps().size());
    for (Time::rep t = 0; t <= r.tMax(); ++t)
        EXPECT_EQ(inhib.at(t), -r.at(t));
}

TEST(Response, PlusComposesAmplitudes)
{
    ResponseFunction a = ResponseFunction::step(2);
    ResponseFunction b = ResponseFunction::piecewiseLinear(3, 1, 2);
    ResponseFunction sum = a.plus(b);
    for (Time::rep t = 0; t <= 5; ++t)
        EXPECT_EQ(sum.at(t), a.at(t) + b.at(t));
}

TEST(Response, PlusWithNegationCancels)
{
    ResponseFunction r = ResponseFunction::biexponential(3, 4.0, 1.0);
    EXPECT_TRUE(r.plus(r.negated()).isZero());
}

TEST(Response, NegativeFinalValueResponse)
{
    // A response settling below zero (sustained inhibition).
    ResponseFunction r({0, -1, -2});
    EXPECT_EQ(r.finalValue(), -2);
    EXPECT_EQ(r.at(100), -2);
    EXPECT_EQ(r.downSteps().size(), 2u);
    EXPECT_TRUE(r.upSteps().empty());
}

TEST(Response, EqualityIsCanonical)
{
    EXPECT_EQ(ResponseFunction({0, 2, 2, 2}), ResponseFunction({0, 2}));
    EXPECT_NE(ResponseFunction({0, 2}), ResponseFunction({0, 3}));
}

} // namespace
} // namespace st
