/**
 * @file
 * Tests for the liquid-state-machine extension (paper Sec. II.C's
 * deferred recurrent case): reservoir dynamics (determinism, bounded
 * activity, fading memory), the separation property (different inputs
 * -> different states), end-to-end classification through a simple
 * linear readout, and a differential sweep of the reservoir's step
 * against the dense every-edge scan it replaced.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <utility>

#include "test_helpers.hpp"
#include "tnn/datasets.hpp"
#include "tnn/lsm.hpp"

namespace st {
namespace {

using testing::V;
using testing::kNo;

ReservoirParams
smallReservoir()
{
    ReservoirParams p;
    p.numInputs = 8;
    p.numNeurons = 48;
    p.seed = 5150;
    return p;
}

TEST(Reservoir, RejectsBadConfig)
{
    ReservoirParams p = smallReservoir();
    p.numInputs = 0;
    EXPECT_THROW(Reservoir{p}, std::invalid_argument);
    p = smallReservoir();
    p.leak = 1.0;
    EXPECT_THROW(Reservoir{p}, std::invalid_argument);
}

TEST(Reservoir, DeterministicConstructionAndRuns)
{
    Reservoir a(smallReservoir()), b(smallReservoir());
    EXPECT_EQ(a.numConnections(), b.numConnections());
    auto v = V({0, 1, 2, 3, kNo, kNo, 1, 0});
    a.runVolley(v, 20);
    b.runVolley(v, 20);
    EXPECT_EQ(a.traces(), b.traces());
    EXPECT_EQ(a.spikeCount(), b.spikeCount());
}

TEST(Reservoir, QuietInputQuietReservoir)
{
    Reservoir r(smallReservoir());
    size_t spikes = r.runVolley(Volley(8, INF), 30);
    EXPECT_EQ(spikes, 0u);
    for (double t : r.traces())
        EXPECT_DOUBLE_EQ(t, 0.0);
}

TEST(Reservoir, InputDrivesActivity)
{
    Reservoir r(smallReservoir());
    size_t spikes = r.runVolley(V({0, 0, 1, 1, 2, 2, 3, 3}), 20);
    EXPECT_GT(spikes, 0u);
    double total = 0;
    for (double t : r.traces())
        total += t;
    EXPECT_GT(total, 0.0);
}

TEST(Reservoir, ActivityIsBounded)
{
    // Refractoriness bounds the rate: no neuron can spike more often
    // than every (refractory + 1) steps.
    ReservoirParams p = smallReservoir();
    p.inputScale = 50.0; // hammer it
    p.weightScale = 5.0;
    Reservoir r(p);
    const size_t steps = 40;
    size_t spikes = r.runVolley(V({0, 0, 0, 0, 0, 0, 0, 0}), steps);
    EXPECT_LE(spikes,
              p.numNeurons * (steps / (p.refractory + 1) + 1));
}

TEST(Reservoir, ResetClearsState)
{
    Reservoir r(smallReservoir());
    r.runVolley(V({0, 1, 0, 1, 0, 1, 0, 1}), 15);
    ASSERT_GT(r.spikeCount(), 0u);
    r.reset();
    EXPECT_EQ(r.spikeCount(), 0u);
    for (double t : r.traces())
        EXPECT_DOUBLE_EQ(t, 0.0);
}

TEST(Reservoir, ActivityFadesAfterInputStops)
{
    // Fading memory: traces decay once the stimulus is gone.
    Reservoir r(smallReservoir());
    r.runVolley(V({0, 0, 1, 1, 2, 2, 3, 3}), 8);
    double right_after = 0;
    for (double t : r.traces())
        right_after += t;
    for (int t = 0; t < 60; ++t)
        r.step({});
    double much_later = 0;
    for (double t : r.traces())
        much_later += t;
    EXPECT_LT(much_later, right_after * 0.5);
}

TEST(Reservoir, SeparationProperty)
{
    // Different inputs must leave measurably different states.
    Reservoir r(smallReservoir());
    r.runVolley(V({0, 1, 2, 3, kNo, kNo, kNo, kNo}), 16);
    auto state_a = r.traces();
    r.reset();
    r.runVolley(V({kNo, kNo, kNo, kNo, 3, 2, 1, 0}), 16);
    auto state_b = r.traces();
    double dist = 0;
    for (size_t j = 0; j < state_a.size(); ++j)
        dist += std::abs(state_a[j] - state_b[j]);
    EXPECT_GT(dist, 1.0);
}

TEST(Reservoir, RejectsBadChannel)
{
    Reservoir r(smallReservoir());
    std::vector<uint32_t> bad{99};
    EXPECT_THROW(r.step(bad), std::out_of_range);
    EXPECT_THROW(r.runVolley(Volley(3, INF), 5), std::invalid_argument);
}

/**
 * The untransformed reservoir: the constructor's seeded Rng draws
 * replayed into one flat edge list, and a step that tests every edge
 * against last step's spike flags. Reservoir walks only the fired
 * neurons' out-edges; the sweep below holds it to this form
 * bit-for-bit.
 */
class DenseReservoir
{
  public:
    explicit DenseReservoir(const ReservoirParams &p) : p_(p)
    {
        Rng rng(p.seed);
        const auto n = static_cast<uint32_t>(p.numNeurons);
        std::vector<bool> inhibitory(n);
        for (uint32_t j = 0; j < n; ++j)
            inhibitory[j] = !rng.chance(p.excitatoryFraction);
        for (uint32_t from = 0; from < n; ++from) {
            for (uint32_t to = 0; to < n; ++to) {
                if (from == to || !rng.chance(p.connectProb))
                    continue;
                const double w = p.weightScale * (0.5 + rng.uniform());
                edges_.push_back({from, to, inhibitory[from] ? -w : w});
            }
        }
        fan_.resize(p.numInputs);
        for (size_t c = 0; c < p.numInputs; ++c) {
            for (uint32_t j = 0; j < n; ++j) {
                if (!rng.chance(p.inputProb))
                    continue;
                fan_[c].emplace_back(j, p.inputScale * (0.5 + rng.uniform()));
            }
        }
        reset();
    }

    void
    reset()
    {
        potential_.assign(p_.numNeurons, 0.0);
        refractory_.assign(p_.numNeurons, 0);
        firedLast_.assign(p_.numNeurons, 0);
        traces_.assign(p_.numNeurons, 0.0);
        spikeCount_ = 0;
    }

    std::vector<uint32_t>
    step(std::span<const uint32_t> channels)
    {
        for (double &v : potential_)
            v *= p_.leak;
        for (const Edge &e : edges_) {
            if (firedLast_[e.from])
                potential_[e.to] += e.weight;
        }
        for (uint32_t c : channels)
            for (const auto &[j, w] : fan_[c])
                potential_[j] += w;
        std::vector<uint32_t> fired;
        for (uint32_t j = 0; j < p_.numNeurons; ++j) {
            traces_[j] *= p_.traceLeak;
            firedLast_[j] = 0;
            if (refractory_[j] > 0) {
                --refractory_[j];
                continue;
            }
            if (potential_[j] >= p_.threshold) {
                fired.push_back(j);
                potential_[j] = 0.0;
                refractory_[j] = p_.refractory;
                firedLast_[j] = 1;
                traces_[j] += 1.0;
                ++spikeCount_;
            }
        }
        return fired;
    }

    size_t numConnections() const { return edges_.size(); }
    const std::vector<double> &potentials() const { return potential_; }
    const std::vector<double> &traces() const { return traces_; }
    size_t spikeCount() const { return spikeCount_; }

  private:
    struct Edge
    {
        uint32_t from, to;
        double weight;
    };

    ReservoirParams p_;
    std::vector<Edge> edges_;
    std::vector<std::vector<std::pair<uint32_t, double>>> fan_;
    std::vector<double> potential_;
    std::vector<uint32_t> refractory_;
    std::vector<uint8_t> firedLast_;
    std::vector<double> traces_;
    size_t spikeCount_ = 0;
};

/**
 * Drive step() and runVolley() of two Reservoirs and the dense form
 * with the same seeded volleys (1-20 steps each, every channel
 * spiking with probability @p spike_p), resetting all three every
 * 1000 volleys. Fired sets and membrane potentials must match per
 * step, bit for bit; traces and spike counts after every volley.
 * Returns the total spike count, so a caller can check the sweep was
 * not silent.
 */
size_t
sweepAgainstDense(const ReservoirParams &p, size_t volleys,
                  double spike_p, uint64_t seed)
{
    Reservoir stepped(p), whole(p);
    DenseReservoir dense(p);
    EXPECT_EQ(stepped.numConnections(), dense.numConnections());
    Rng rng(seed);
    std::vector<uint32_t> channels;
    size_t total = 0;
    for (size_t v = 0; v < volleys; ++v) {
        if (v % 1000 == 0) {
            stepped.reset();
            whole.reset();
            dense.reset();
        }
        const size_t steps = 1 + rng.below(20);
        Volley volley(p.numInputs, INF);
        for (Time &t : volley)
            if (rng.chance(spike_p))
                t = Time(rng.below(steps));
        size_t spikes = 0;
        for (size_t t = 0; t < steps; ++t) {
            channels.clear();
            for (size_t c = 0; c < volley.size(); ++c)
                if (volley[c].isFinite() && volley[c].value() == t)
                    channels.push_back(static_cast<uint32_t>(c));
            const std::vector<uint32_t> want = dense.step(channels);
            if (stepped.step(channels) != want ||
                stepped.potentials() != dense.potentials()) {
                ADD_FAILURE() << "fired set or potentials differ at "
                              << "volley " << v << " step " << t;
                return total;
            }
            spikes += want.size();
        }
        if (whole.runVolley(volley, steps) != spikes ||
            whole.potentials() != dense.potentials() ||
            stepped.traces() != dense.traces() ||
            whole.traces() != dense.traces() ||
            stepped.spikeCount() != dense.spikeCount() ||
            whole.spikeCount() != dense.spikeCount()) {
            ADD_FAILURE() << "state differs after volley " << v;
            return total;
        }
        total += spikes;
    }
    return total;
}

ReservoirParams
demoReservoir()
{
    // What `stmodel_pack --demo 16 --kind lsm` packs and the perf
    // ledger's lsm-paced workload serves.
    ReservoirParams p;
    p.numInputs = 16;
    p.numNeurons = 96;
    return p;
}

TEST(ReservoirDifferential, DemoReservoirMatchesDenseScan)
{
    EXPECT_GT(sweepAgainstDense(demoReservoir(), 10000, 0.15, 31),
              1000000u);
}

TEST(ReservoirDifferential, LowActivityReservoirMatchesDenseScan)
{
    ReservoirParams p;
    p.numInputs = 12;
    p.numNeurons = 200;
    p.connectProb = 0.02;
    p.seed = 4242;
    EXPECT_GT(sweepAgainstDense(p, 10000, 0.1, 32), 100000u);
}

TEST(ReservoirDifferential, SmallReservoirMatchesDenseScan)
{
    EXPECT_GT(sweepAgainstDense(smallReservoir(), 10000, 0.25, 33),
              100000u);
}

TEST(LinearReadout, LearnsLinearlySeparableFeatures)
{
    LinearReadout readout(2, 2, 9);
    Rng rng(10);
    for (int i = 0; i < 4000; ++i) {
        double x = rng.uniform(), y = rng.uniform();
        std::vector<double> f{x, y};
        readout.train(f, x > y ? 0u : 1u, 0.1);
    }
    size_t right = 0;
    for (int i = 0; i < 200; ++i) {
        double x = rng.uniform(), y = rng.uniform();
        std::vector<double> f{x, y};
        right += readout.classify(f) == (x > y ? 0u : 1u);
    }
    EXPECT_GE(right, 180u);
}

TEST(LinearReadout, RejectsBadArguments)
{
    EXPECT_THROW(LinearReadout(0, 2), std::invalid_argument);
    LinearReadout r(2, 2);
    std::vector<double> f{1.0};
    EXPECT_THROW(r.train(f, 0), std::invalid_argument);
    std::vector<double> ok{1.0, 2.0};
    EXPECT_THROW(r.train(ok, 5), std::out_of_range);
}

/**
 * The end-to-end LSM experiment: classify which temporal pattern was
 * injected, reading the reservoir AFTER a silent delay — information
 * the feedforward single-wave model cannot hold, demonstrated via the
 * recurrent extension.
 */
TEST(LsmTraining, ClassifiesPatternsThroughFadingMemory)
{
    PatternSetParams dp;
    dp.numClasses = 3;
    dp.numLines = 8;
    dp.timeSpan = 7;
    dp.jitter = 0.25;
    dp.seed = 777;
    PatternDataset data(dp);

    ReservoirParams rp = smallReservoir();
    rp.numNeurons = 64;
    Reservoir reservoir(rp);
    LinearReadout readout(rp.numNeurons, dp.numClasses, 11);

    const size_t delay = 4; // silent steps before reading the state
    auto featurize = [&](const Volley &v) {
        reservoir.reset();
        reservoir.runVolley(v, 8 + delay);
        return reservoir.traces();
    };

    for (int epoch = 0; epoch < 12; ++epoch) {
        for (const auto &s : data.sampleMany(60))
            readout.train(featurize(s.volley), s.label, 0.05);
    }
    size_t right = 0;
    const size_t tests = 150;
    for (const auto &s : data.sampleMany(tests))
        right += readout.classify(featurize(s.volley)) == s.label;
    EXPECT_GT(static_cast<double>(right) / tests, 0.8)
        << right << "/" << tests;
}

TEST(LsmTraining, AccuracyDegradesWithDelay)
{
    // Fading memory, quantified: longer silent delays before reading
    // the state erase more information.
    PatternSetParams dp;
    dp.numClasses = 3;
    dp.numLines = 8;
    dp.timeSpan = 7;
    dp.jitter = 0.25;
    dp.seed = 778;
    PatternDataset data(dp);
    ReservoirParams rp = smallReservoir();
    rp.numNeurons = 64;

    auto accuracy_at = [&](size_t delay) {
        Reservoir reservoir(rp);
        LinearReadout readout(rp.numNeurons, dp.numClasses, 12);
        auto featurize = [&](const Volley &v) {
            reservoir.reset();
            reservoir.runVolley(v, 8 + delay);
            return reservoir.traces();
        };
        for (int epoch = 0; epoch < 10; ++epoch) {
            for (const auto &s : data.sampleMany(50))
                readout.train(featurize(s.volley), s.label, 0.05);
        }
        size_t right = 0;
        for (const auto &s : data.sampleMany(120))
            right += readout.classify(featurize(s.volley)) == s.label;
        return static_cast<double>(right) / 120.0;
    };

    double near = accuracy_at(2);
    double far = accuracy_at(40);
    EXPECT_GT(near, 0.7);
    EXPECT_LT(far, near);
}

} // namespace
} // namespace st
