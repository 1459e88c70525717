/**
 * @file
 * Differential suite for the Column event sweep: every raw fire time a
 * Column computes must equal Srm0Neuron::fire() on the neuron's
 * reference model (Column::neuronModel, quantized from the shadow
 * weights), and Column::potentialAt() must equal the reference
 * potential. Covered: all three response shapes, thresholds from 1 to
 * unreachable, 1-15 weight levels, zero-weight rows, columns 1-96
 * neurons wide, volleys heavy in silent lines, in ties, and near the
 * top of the time range, with and without the synapse-delay fault
 * hook, from many pool lanes at once, and across copies and weight
 * mutations.
 */

#include <gtest/gtest.h>

#include <limits>

#include "core/properties.hpp"
#include "fault/fault.hpp"
#include "test_helpers.hpp"
#include "tnn/layer.hpp"
#include "util/thread_pool.hpp"

namespace st {
namespace {

using Amp = ResponseFunction::Amp;

constexpr Time::rep kTop = std::numeric_limits<Time::rep>::max() - 1;

const ResponseShape kShapes[] = {ResponseShape::Step,
                                 ResponseShape::Biexponential,
                                 ResponseShape::PiecewiseLinear};

/** Random shadow weights; about one row in five is all zero. */
std::vector<std::vector<double>>
randomWeights(Rng &rng, size_t neurons, size_t inputs)
{
    std::vector<std::vector<double>> w(neurons,
                                       std::vector<double>(inputs));
    for (auto &row : w) {
        const bool silent = rng.chance(0.2);
        for (double &x : row)
            x = silent ? 0.0 : rng.uniform();
    }
    return w;
}

/**
 * One volley of the given kind: 0 mixed, 1 mostly silent, 2 mostly
 * ties, 3 within 16 ticks of the largest finite time.
 */
std::vector<Time>
volleyOfKind(Rng &rng, size_t inputs, int kind)
{
    switch (kind) {
      case 0:
        return testing::randomVolley(rng, inputs, 24, 0.3);
      case 1:
        return testing::randomVolley(rng, inputs, 24, 0.9);
      case 2:
        return testing::randomVolley(rng, inputs, 2, 0.1);
      default: {
        std::vector<Time> v = testing::randomVolley(rng, inputs, 16, 0.3);
        for (Time &t : v)
            if (t.isFinite())
                t = Time(kTop - t.value());
        return v;
      }
    }
}

/** The reference models of every neuron, built once per column. */
std::vector<Srm0Neuron>
oracles(const Column &col)
{
    std::vector<Srm0Neuron> models;
    for (size_t j = 0; j < col.params().numNeurons; ++j)
        models.push_back(col.neuronModel(j));
    return models;
}

/** Raw fire times and tie-break potentials equal the oracle's. */
void
expectMatchesOracle(const Column &col,
                    const std::vector<Srm0Neuron> &models,
                    std::span<const Time> x)
{
    const std::vector<Time> raw = col.rawFireTimes(x);
    for (size_t j = 0; j < raw.size(); ++j) {
        ASSERT_EQ(raw[j], models[j].fire(x))
            << "neuron " << j << " theta " << col.params().threshold
            << " on " << volleyStr(x);
        if (raw[j].isFinite()) {
            const Time::rep t = raw[j].value();
            ASSERT_EQ(col.potentialAt(j, x, t), models[j].potentialAt(x, t))
                << "neuron " << j << " at " << t;
        }
    }
}

/** The column under test: shape, levels, threshold kind, width. */
Column
makeColumn(Rng &rng, ResponseShape shape, size_t max_weight,
           int theta_kind, size_t neurons, size_t inputs)
{
    ColumnParams p;
    p.numInputs = inputs;
    p.numNeurons = neurons;
    p.maxWeight = max_weight;
    p.shape = shape;
    p.seed = rng.next();
    const Column probe(p);
    const Amp top = probe.family().back().peak();
    switch (theta_kind) {
      case 0:
        p.threshold = 1;
        break;
      case 1: // one above the largest single level: needs two spikes
        p.threshold = top + 1;
        break;
      default: // above every row sum: never fires
        p.threshold = static_cast<Amp>(inputs) * top + 1;
        break;
    }
    return Column(p, randomWeights(rng, neurons, inputs));
}

TEST(ColumnKernel, MatchesOracleAcrossShapesThresholdsAndWidths)
{
    const size_t kNeurons[] = {1, 3, 17, 63, 64, 65, 96};
    const size_t kInputs[] = {1, 2, 5, 16, 33};
    Rng rng(0xc01);
    size_t config = 0;
    for (ResponseShape shape : kShapes) {
        for (int theta_kind = 0; theta_kind < 3; ++theta_kind) {
            for (size_t max_weight = 1; max_weight <= 15; ++max_weight) {
                const size_t neurons = kNeurons[config % 7];
                const size_t inputs = kInputs[config % 5];
                ++config;
                Column col = makeColumn(rng, shape, max_weight,
                                        theta_kind, neurons, inputs);
                const std::vector<Srm0Neuron> models = oracles(col);
                for (int v = 0; v < 32; ++v) {
                    const auto x = volleyOfKind(rng, inputs, v % 4);
                    expectMatchesOracle(col, models, x);
                    if (HasFatalFailure())
                        return;
                }
            }
        }
    }
}

TEST(ColumnKernel, MatchesOracleUnderSynapseDelays)
{
    fault::FaultSpec spec;
    spec.seed = 77;
    spec.synDelayJitter = 3;
    fault::FaultInjector inj(spec);
    fault::InjectionScope scope(inj);
    Rng rng(0xde1a7);
    for (ResponseShape shape : kShapes) {
        for (int theta_kind = 0; theta_kind < 2; ++theta_kind) {
            Column col = makeColumn(rng, shape, 7, theta_kind, 24, 9);
            const std::vector<Srm0Neuron> models = oracles(col);
            for (int v = 0; v < 40; ++v) {
                const auto x = volleyOfKind(rng, 9, v % 4);
                const std::vector<Time> raw = col.rawFireTimes(x);
                for (size_t j = 0; j < raw.size(); ++j) {
                    std::vector<Time> delayed(x.begin(), x.end());
                    for (size_t k = 0; k < delayed.size(); ++k)
                        delayed[k] = delayed[k] +
                                     inj.synapseDelay(col.params().seed,
                                                      j, k);
                    ASSERT_EQ(raw[j], models[j].fire(delayed))
                        << "neuron " << j << " on " << volleyStr(x);
                }
            }
        }
    }
}

TEST(ColumnKernel, PotentialAtEqualsOracleAtEveryTick)
{
    Rng rng(0x9074);
    for (ResponseShape shape : kShapes) {
        Column col = makeColumn(rng, shape, 5, 1, 6, 7);
        const std::vector<Srm0Neuron> models = oracles(col);
        for (int v = 0; v < 20; ++v) {
            const auto x = volleyOfKind(rng, 7, v % 3);
            for (size_t j = 0; j < 6; ++j)
                for (Time::rep t = 0; t < 48; ++t)
                    ASSERT_EQ(col.potentialAt(j, x, t),
                              models[j].potentialAt(x, t))
                        << "neuron " << j << " at " << t;
        }
    }
    Column col = makeColumn(rng, ResponseShape::Step, 7, 0, 2, 3);
    EXPECT_THROW(col.potentialAt(2, testing::V({0, 0, 0}), 0),
                 std::out_of_range);
    EXPECT_THROW(col.potentialAt(0, testing::V({0, 0}), 0),
                 std::invalid_argument);
}

TEST(ColumnKernel, ConcurrentSweepsMatchSerial)
{
    // Every thread sweeps in its own scratch, so pool lanes firing one
    // column at once reproduce the serial answers.
    Rng rng(0x1a7e5);
    for (ResponseShape shape : kShapes) {
        Column col = makeColumn(rng, shape, 7, 1, 40, 12);
        std::vector<Volley> batch;
        for (int v = 0; v < 256; ++v)
            batch.push_back(volleyOfKind(rng, 12, v % 4));
        std::vector<std::vector<Time>> serial;
        for (const Volley &x : batch)
            serial.push_back(col.rawFireTimes(x));
        std::vector<std::vector<Time>> parallel(batch.size());
        ThreadPool::shared().parallelFor(0, batch.size(), 1, [&](size_t i) {
            parallel[i] = col.rawFireTimes(batch[i]);
        });
        EXPECT_EQ(parallel, serial);
    }
}

TEST(ColumnKernel, CopiesAndMutationsKeepTheTableInStep)
{
    Rng rng(0x7ab1e);
    for (ResponseShape shape : kShapes) {
        Column original = makeColumn(rng, shape, 7, 1, 12, 6);
        Column copy = original;
        Column assigned = makeColumn(rng, shape, 3, 0, 2, 6);
        assigned = original;

        // Mutate the original every way the table must follow.
        for (size_t j = 0; j < 12; j += 3) {
            std::vector<double> w(6);
            for (double &x : w)
                x = rng.uniform();
            original.setWeights(j, w);
        }
        SimplifiedStdp rule(0.3, 0.2);
        std::vector<Volley> batch;
        for (int v = 0; v < 16; ++v)
            batch.push_back(volleyOfKind(rng, 6, v % 3));
        for (const Volley &x : batch)
            original.trainStep(x, rule);
        original.trainBatch(batch, rule);

        for (const Column *col : {&original, &copy, &assigned}) {
            const std::vector<Srm0Neuron> models = oracles(*col);
            for (int v = 0; v < 24; ++v)
                expectMatchesOracle(*col, models, volleyOfKind(rng, 6, v % 4));
        }
        // The copies still hold the pre-mutation weights.
        for (size_t j = 0; j < 12; ++j) {
            EXPECT_EQ(copy.weights(j), assigned.weights(j));
            EXPECT_EQ(copy.discreteWeights(j), assigned.discreteWeights(j));
        }
    }
}

} // namespace
} // namespace st
