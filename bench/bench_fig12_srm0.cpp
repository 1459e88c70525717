/**
 * @file
 * Experiment F12 — paper Fig. 12: the SRM0 neuron from s-t primitives.
 *
 * Regenerates the construction-cost series (taps, comparators, lt rank
 * blocks, total nodes, depth) as synapse count grows, and runs the
 * reproduction's central agreement check: the Fig. 12 network vs the
 * numerical Fig. 1 reference on thousands of random volleys. Times both
 * implementations, and (F12b) every full-block evaluator body this CPU
 * can run, on the SRM0 plan and on a Fig. 15 WTA plan.
 */

#include "bench_common.hpp"

#include <algorithm>
#include <cmath>

#include "core/eval_plan.hpp"
#include "neuron/srm0_network.hpp"
#include "neuron/srm0_reference.hpp"
#include "neuron/wta.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

using namespace st;

namespace {

std::vector<ResponseFunction>
synapses(size_t q)
{
    std::vector<ResponseFunction> syn;
    for (size_t i = 0; i < q; ++i) {
        if (i % 4 == 3)
            syn.push_back(
                ResponseFunction::biexponential(2, 4.0, 1.0).negated());
        else
            syn.push_back(ResponseFunction::biexponential(3, 4.0, 1.0));
    }
    return syn;
}

/** The @p p quantile of @p xs, by nearest rank. */
double
quantile(std::vector<double> xs, double p)
{
    std::sort(xs.begin(), xs.end());
    return xs[static_cast<size_t>(
        std::lround(p * static_cast<double>(xs.size() - 1)))];
}

/**
 * F12b: each entry of the evaluator body table on full blocks of the
 * 32-synapse SRM0 plan (95% zero-delay binary min/max) and of the
 * Fig. 15 WTA over 256 lines (delayed lt gates behind a 256-ary min).
 * Rounds interleave the bodies, rotating which runs first, so host
 * noise spreads over all of them alike.
 */
void
printBodies()
{
    std::cout << "F12b | Evaluator bodies on full " << kEvalBlockLanes
              << "-volley blocks, single thread: ns per volley over "
                 "interleaved rounds\n";
    AsciiTable t({"plan", "body", "p50 ns/volley", "q1", "q3",
                  "vs scalar", "identical"});
    struct Plan
    {
        const char *name;
        Network net;
    };
    const Plan plans[] = {{"srm0-32", buildSrm0Network(synapses(32), 32)},
                          {"wta-256", wtaNetwork(256, 2)}};
    const std::span<const EvalBody> bodies = evalBodies();
    const size_t rounds = bench::scaled(21, 2);
    const size_t volleys = bench::scaled(1024, 2 * kEvalBlockLanes);
    Rng rng(16);
    for (const Plan &plan : plans) {
        const EvalProgram &prog = plan.net.compile().live;
        std::vector<std::vector<Time>> batch(volleys);
        for (auto &x : batch) {
            x.resize(plan.net.numInputs());
            for (Time &v : x)
                v = rng.chance(0.2) ? INF : Time(rng.below(10));
        }
        const std::span<const std::vector<Time>> all(batch);
        const std::vector<Time> zeros(prog.size() * kEvalBlockLanes);
        std::vector<std::vector<Time>> rows(bodies.size(), zeros);
        std::vector<std::vector<double>> ns(bodies.size());
        for (size_t r = 0; r < rounds; ++r) {
            for (size_t k = 0; k < bodies.size(); ++k) {
                const size_t b = (r + k) % bodies.size();
                Stopwatch sw;
                for (size_t v = 0; v < volleys; v += kEvalBlockLanes) {
                    bodies[b].run(prog.view(), plan.net.nodes(),
                                  all.subspan(v, kEvalBlockLanes),
                                  rows[b].data());
                    benchmark::ClobberMemory();
                }
                ns[b].push_back(sw.seconds() * 1e9 /
                                static_cast<double>(volleys));
            }
        }
        // Every body ended on the same last block: its rows must match
        // the scalar body's bit for bit.
        const double scalar = quantile(ns.back(), 0.5);
        for (size_t b = 0; b < bodies.size(); ++b) {
            const double p50 = quantile(ns[b], 0.5);
            const double q1 = quantile(ns[b], 0.25);
            const double q3 = quantile(ns[b], 0.75);
            const double speedup = scalar / p50;
            t.row(plan.name, bodies[b].name, std::round(p50),
                  std::round(q1), std::round(q3),
                  std::round(speedup * 100) / 100,
                  rows[b] == rows.back() ? "yes" : "NO");
            const std::string config = std::string("plan=") + plan.name +
                                       " body=" + bodies[b].name;
            bench::recordValue("fig12_bodies", config, "ns_per_volley_p50",
                               p50);
            bench::recordValue("fig12_bodies", config, "ns_per_volley_q1",
                               q1);
            bench::recordValue("fig12_bodies", config, "ns_per_volley_q3",
                               q3);
            bench::recordValue("fig12_bodies", config, "speedup_vs_scalar",
                               speedup);
        }
    }
    t.writeTo(std::cout);
    std::cout << "shape check: identical everywhere; every vector body "
                 "beats scalar, and wider registers run faster.\n";
}

void
printFigure()
{
    std::cout << "F12 | Fig. 12: SRM0 construction cost vs synapse "
                 "count (biexp responses, 1-in-4 inhibitory, theta = "
                 "synapses)\n";
    AsciiTable t({"synapses", "up taps", "down taps", "comparators",
                  "lt blocks", "total nodes", "depth"});
    for (size_t q : {2, 4, 8, 16, 32}) {
        auto stats = srm0NetworkStats(
            synapses(q), static_cast<ResponseFunction::Amp>(q));
        t.row(q, stats.upTaps, stats.downTaps, stats.comparators,
              stats.ltBlocks, stats.totalNodes, stats.depth);
    }
    t.writeTo(std::cout);
    std::cout << "shape check: the two sorters dominate "
                 "(O(T log^2 T) comparators for T taps).\n\n";

    std::cout << "Agreement: Fig. 12 network vs numerical reference "
                 "(Fig. 1):\n";
    AsciiTable agree({"synapses", "theta", "random volleys",
                      "agreements", "spikes produced"});
    Rng rng(12);
    for (size_t q : {3, 6, 10}) {
        auto syn = synapses(q);
        auto theta = static_cast<ResponseFunction::Amp>(q);
        Srm0Neuron ref(syn, theta);
        Network net = buildSrm0Network(syn, theta);
        size_t match = 0, fired = 0;
        const size_t probes = 2000;
        for (size_t s = 0; s < probes; ++s) {
            std::vector<Time> x(q);
            for (Time &v : x)
                v = rng.chance(0.2) ? INF : Time(rng.below(10));
            Time a = net.evaluate(x)[0];
            Time b = ref.fire(x);
            match += a == b;
            fired += b.isFinite();
        }
        agree.row(q, theta, probes, match, fired);
    }
    agree.writeTo(std::cout);
    std::cout << "shape check: agreements == volleys (exact cross-"
                 "domain equivalence).\n\n";

    std::cout << "Compiled lane-blocked plan vs graph interpreter "
                 "(both single-thread, identical outputs):\n";
    AsciiTable perf({"synapses", "volleys", "interp v/s",
                     "compiled v/s", "speedup"});
    Rng perf_rng(15);
    for (size_t q : {4, 16, 32}) {
        Network net = buildSrm0Network(
            synapses(q), static_cast<ResponseFunction::Amp>(q));
        const size_t probes = bench::scaled(4000, 25);
        std::vector<std::vector<Time>> volleys(probes);
        for (auto &x : volleys) {
            x.resize(q);
            for (Time &v : x)
                v = perf_rng.chance(0.2) ? INF
                                         : Time(perf_rng.below(10));
        }
        Stopwatch sw;
        for (const auto &x : volleys)
            benchmark::DoNotOptimize(net.evaluateInterpreted(x));
        double interp_secs = sw.seconds();
        sw.reset();
        // Same thread, same outputs: the compiled plan streams the
        // volleys through the lane-blocked batch engine.
        auto batched = net.evaluateBatch(volleys, 1);
        double compiled_secs = sw.seconds();
        benchmark::DoNotOptimize(batched);
        double vps = static_cast<double>(probes) / compiled_secs;
        double speedup = interp_secs / compiled_secs;
        perf.row(q, probes,
                 static_cast<double>(probes) / interp_secs, vps,
                 speedup);
        bench::record("fig12_srm0", "synapses=" + std::to_string(q),
                      vps, speedup);
    }
    perf.writeTo(std::cout);
    std::cout << "shape check: the compiled plan (DCE + inc fusion + "
                 "flat CSR operands) wins more as the network grows.\n\n";
    printBodies();
}

void
BM_Srm0NetworkEvaluate(benchmark::State &state)
{
    const size_t q = static_cast<size_t>(state.range(0));
    Network net = buildSrm0Network(
        synapses(q), static_cast<ResponseFunction::Amp>(q));
    Rng rng(13);
    std::vector<Time> x(q);
    for (Time &v : x)
        v = Time(rng.below(8));
    for (auto _ : state) {
        auto out = net.evaluate(x);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_Srm0NetworkEvaluate)->Arg(4)->Arg(16)->Arg(32);

void
BM_Srm0NetworkEvaluateInterpreted(benchmark::State &state)
{
    // The pre-compile baseline: walks the node graph as built.
    const size_t q = static_cast<size_t>(state.range(0));
    Network net = buildSrm0Network(
        synapses(q), static_cast<ResponseFunction::Amp>(q));
    Rng rng(13);
    std::vector<Time> x(q);
    for (Time &v : x)
        v = Time(rng.below(8));
    for (auto _ : state) {
        auto out = net.evaluateInterpreted(x);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_Srm0NetworkEvaluateInterpreted)->Arg(4)->Arg(16)->Arg(32);

void
BM_Srm0ReferenceFire(benchmark::State &state)
{
    const size_t q = static_cast<size_t>(state.range(0));
    Srm0Neuron ref(synapses(q), static_cast<ResponseFunction::Amp>(q));
    Rng rng(14);
    std::vector<Time> x(q);
    for (Time &v : x)
        v = Time(rng.below(8));
    for (auto _ : state) {
        Time y = ref.fire(x);
        benchmark::DoNotOptimize(y);
    }
}
BENCHMARK(BM_Srm0ReferenceFire)->Arg(4)->Arg(16)->Arg(32);

void
BM_Srm0Build(benchmark::State &state)
{
    const size_t q = static_cast<size_t>(state.range(0));
    auto syn = synapses(q);
    for (auto _ : state) {
        Network net = buildSrm0Network(
            syn, static_cast<ResponseFunction::Amp>(q));
        benchmark::DoNotOptimize(net);
    }
}
BENCHMARK(BM_Srm0Build)->Arg(4)->Arg(16)->Arg(32);

} // namespace

ST_BENCH_MAIN(printFigure)
