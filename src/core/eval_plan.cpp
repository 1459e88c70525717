#include "core/eval_plan.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "core/algebra.hpp"
#include "core/network.hpp"
#include "obs/obs.hpp"

namespace st {

namespace {

/**
 * Saturating delay accumulation. Folding inc(inc(v, d1), d2) into
 * v + (d1 (+) d2) is exact: if the clamped sum stays below 2^64-1 both
 * forms add the same constant; if either form reaches or passes the
 * all-ones pattern, both land on inf (Time::operator+ saturates on
 * wrap, and the all-ones pattern *is* the inf representation).
 */
Time::rep
foldDelay(Time::rep a, Time::rep b)
{
    Time::rep sum = a + b;
    if (sum < a)
        return std::numeric_limits<Time::rep>::max();
    return sum;
}

/** An operand chased through its inc chain to the producing block. */
struct ResolvedEdge
{
    NodeId root = 0;
    Time::rep delay = 0;
    size_t hops = 0; //!< inc blocks folded away
};

ResolvedEdge
resolveThroughIncs(const std::vector<Node> &nodes, NodeId src)
{
    ResolvedEdge edge;
    while (nodes[src].op == Op::Inc) {
        edge.delay = foldDelay(edge.delay, nodes[src].delay);
        src = nodes[src].fanin[0];
        ++edge.hops;
    }
    edge.root = src;
    return edge;
}

/** Append one instruction header; operands follow via pushEdge. */
void
pushInstr(EvalProgram &prog, PlanOp op, uint32_t extra)
{
    prog.op.push_back(static_cast<uint8_t>(op));
    prog.extra.push_back(extra);
}

void
pushEdge(EvalProgram &prog, uint32_t slot, Time::rep delay)
{
    prog.argSlot.push_back(slot);
    prog.argDelay.push_back(delay);
}

void
sealInstr(EvalProgram &prog)
{
    prog.argBeg.push_back(static_cast<uint32_t>(prog.argSlot.size()));
}

/**
 * The instruction kind for a node all of whose operand edges carry
 * zero delay: binary min/max/lt take the fast forms.
 */
PlanOp
planOpOf(Op op, size_t arity)
{
    switch (op) {
      case Op::Min:
        return arity == 2 ? PlanOp::Min2 : PlanOp::Min;
      case Op::Max:
        return arity == 2 ? PlanOp::Max2 : PlanOp::Max;
      case Op::Lt:
        return PlanOp::Lt2;
      default:
        return PlanOp::Min; // Inc compiles to a 1-ary min edge
    }
}

/** True iff any of @p node's operand edges folds to a nonzero delay. */
bool
hasDelayedOperand(const std::vector<Node> &nodes, const Node &node)
{
    for (NodeId src : node.fanin) {
        if (resolveThroughIncs(nodes, src).delay != 0)
            return true;
    }
    return false;
}

/** The instruction kind @p node compiles to in the live program. */
PlanOp
liveOpOf(const std::vector<Node> &nodes, const Node &node)
{
    switch (node.op) {
      case Op::Input:
        return PlanOp::Input;
      case Op::Config:
        return PlanOp::Config;
      case Op::Inc:
        return PlanOp::Min; // 1-ary, carries the folded chain delay
      case Op::Lt:
        return hasDelayedOperand(nodes, node) ? PlanOp::Lt
                                              : PlanOp::Lt2;
      case Op::Min:
        if (node.fanin.size() != 2 || hasDelayedOperand(nodes, node))
            return PlanOp::Min;
        return PlanOp::Min2;
      default: // Op::Max
        if (node.fanin.size() != 2 || hasDelayedOperand(nodes, node))
            return PlanOp::Max;
        return PlanOp::Max2;
    }
}

/** Chop the finished instruction stream into maximal same-op runs. */
void
finalizeRuns(EvalProgram &prog)
{
    const size_t n = prog.op.size();
    for (size_t i = 1; i < n; ++i) {
        if (prog.op[i] != prog.op[i - 1])
            prog.runEnd.push_back(static_cast<uint32_t>(i));
    }
    if (n > 0)
        prog.runEnd.push_back(static_cast<uint32_t>(n));
}

/**
 * The full program evaluates every node in id order, so slot i is
 * exactly NodeId i — what evaluateAll() and the trace-equivalence
 * tests index by. Inc nodes become 1-ary min instructions whose single
 * edge carries the delay (tmin(inf, v + c) == v + c).
 */
EvalProgram
buildFullProgram(const std::vector<Node> &nodes,
                 const std::vector<NodeId> &outputs)
{
    EvalProgram prog;
    const size_t n = nodes.size();
    prog.op.reserve(n);
    prog.extra.reserve(n);
    prog.argBeg.reserve(n + 1);
    prog.argBeg.push_back(0);
    for (size_t i = 0; i < n; ++i) {
        const Node &node = nodes[i];
        switch (node.op) {
          case Op::Input:
            pushInstr(prog, PlanOp::Input, static_cast<uint32_t>(i));
            break;
          case Op::Config:
            pushInstr(prog, PlanOp::Config, static_cast<uint32_t>(i));
            break;
          case Op::Inc:
            pushInstr(prog, PlanOp::Min, 0);
            pushEdge(prog, node.fanin[0], node.delay);
            break;
          default:
            pushInstr(prog, planOpOf(node.op, node.fanin.size()), 0);
            for (NodeId src : node.fanin)
                pushEdge(prog, src, 0);
            break;
        }
        sealInstr(prog);
    }
    prog.outSlot.assign(outputs.begin(), outputs.end());
    finalizeRuns(prog);
    return prog;
}

} // namespace

void
runProgram(const EvalProgramView &prog, std::span<const Node> nodes,
           std::span<const Time> inputs, std::vector<Time> &values)
{
    // Three relaxed adds per volley — noise against the instruction
    // walk below, but they expose the dispatch economics (how long
    // the same-op runs actually are) that the run scheduler exists
    // to maximize.
    ST_OBS_ADD("eval.run.calls", 1);
    ST_OBS_ADD("eval.run.dispatches", prog.runEnd.size());
    ST_OBS_ADD("eval.run.instructions", prog.op.size());
    const std::span<const uint8_t> op = prog.op;
    const std::span<const uint32_t> extra = prog.extra;
    const std::span<const uint32_t> argBeg = prog.argBeg;
    const std::span<const uint32_t> runEnd = prog.runEnd;
    values.resize(op.size());
    Time *v = values.data();
    const uint32_t *slot = prog.argSlot.data();
    const Time::rep *dly = prog.argDelay.data();
    constexpr Time::rep inf = std::numeric_limits<Time::rep>::max();
    // The hot path works on raw representations: Time's total order is
    // the plain uint64 order (inf is the all-ones maximum), so min, max
    // and lt reduce to branch-free integer selects.
    auto arg = [&](uint32_t e) -> Time::rep {
        // Saturating operand add without testing for inf: a finite
        // overflow and inf + positive both wrap below the original
        // value, and inf + 0 already is the inf pattern. The select
        // compiles to a cmov, so inf-heavy volleys cost no branch
        // mispredictions (the interpreter-beating difference on the
        // Fig. 12 nets, whose values go inf constantly).
        const Time::rep a = std::bit_cast<Time::rep>(v[slot[e]]);
        const Time::rep s = a + dly[e];
        return s < a ? inf : s;
    };
    auto raw = [&](uint32_t e) -> Time::rep {
        return std::bit_cast<Time::rep>(v[slot[e]]);
    };
    auto put = [&](size_t i, Time::rep r) {
        v[i] = std::bit_cast<Time>(r);
    };
    // Dispatch once per same-op run, not once per instruction: the
    // live program is scheduled so that each dataflow level's min2s,
    // max2s, lts, ... sit adjacent, turning the op switch from an
    // unpredictable per-node indirect branch into a per-run one and
    // letting the out-of-order core overlap the (independent)
    // iterations inside a run.
    size_t i = 0;
    for (uint32_t runedge : runEnd) {
        const size_t end = runedge;
        switch (static_cast<PlanOp>(op[i])) {
          case PlanOp::Input:
            for (; i < end; ++i)
                v[i] = inputs[extra[i]];
            break;
          case PlanOp::Config:
            for (; i < end; ++i)
                v[i] = nodes[extra[i]].configValue;
            break;
          case PlanOp::Min2: {
            // The fast binary forms own exactly two zero-delay edges
            // each, laid out back to back, so the edge cursor strides
            // by two with no argBeg or delay loads at all.
            uint32_t e = argBeg[i];
            for (; i < end; ++i, e += 2)
                put(i, std::min(raw(e), raw(e + 1)));
            break;
          }
          case PlanOp::Max2: {
            uint32_t e = argBeg[i];
            for (; i < end; ++i, e += 2)
                put(i, std::max(raw(e), raw(e + 1)));
            break;
          }
          case PlanOp::Lt2: {
            uint32_t e = argBeg[i];
            for (; i < end; ++i, e += 2) {
                const Time::rep a = raw(e);
                put(i, a < raw(e + 1) ? a : inf);
            }
            break;
          }
          case PlanOp::Min:
            for (; i < end; ++i) {
                const uint32_t beg = argBeg[i];
                Time::rep m = arg(beg);
                for (uint32_t e = beg + 1; e < argBeg[i + 1]; ++e)
                    m = std::min(m, arg(e));
                put(i, m);
            }
            break;
          case PlanOp::Max:
            for (; i < end; ++i) {
                const uint32_t beg = argBeg[i];
                Time::rep m = arg(beg);
                for (uint32_t e = beg + 1; e < argBeg[i + 1]; ++e)
                    m = std::max(m, arg(e));
                put(i, m);
            }
            break;
          case PlanOp::Lt:
            for (; i < end; ++i) {
                const uint32_t beg = argBeg[i];
                const Time::rep a = arg(beg);
                put(i, a < arg(beg + 1) ? a : inf);
            }
            break;
        }
    }
}

void
EvalProgram::run(std::span<const Node> nodes,
                 std::span<const Time> inputs,
                 std::vector<Time> &values) const
{
    runProgram(view(), nodes, inputs, values);
}

namespace {

/**
 * Lane-blocked executor body, shared by the fixed-width instantiation
 * (block loops fully unrolled) and the runtime-width tail-block one
 * (kLanes == 0). Row layout and per-op semantics are documented on
 * EvalProgram::runBlock.
 */
template <size_t kLanes>
void
runBlockImpl(const EvalProgramView &prog, std::span<const Node> nodes,
             std::span<const std::vector<Time>> batch, Time *v)
{
    const size_t lanes = kLanes == 0 ? batch.size() : kLanes;
    const uint32_t *slot = prog.argSlot.data();
    const Time::rep *dly = prog.argDelay.data();
    constexpr Time::rep inf = std::numeric_limits<Time::rep>::max();
    auto rowOf = [&](uint32_t s) { return v + size_t{s} * lanes; };
    auto get = [](const Time *row, size_t l) {
        return std::bit_cast<Time::rep>(row[l]);
    };
    auto sat = [](Time::rep x, Time::rep d) {
        const Time::rep s = x + d;
        return s < x ? inf : s;
    };
    size_t i = 0;
    for (uint32_t runedge : prog.runEnd) {
        const size_t end = runedge;
        switch (static_cast<PlanOp>(prog.op[i])) {
          case PlanOp::Input:
            for (; i < end; ++i) {
                Time *o = v + i * lanes;
                const uint32_t src = prog.extra[i];
                for (size_t l = 0; l < lanes; ++l)
                    o[l] = batch[l][src];
            }
            break;
          case PlanOp::Config:
            for (; i < end; ++i) {
                const Time c = nodes[prog.extra[i]].configValue;
                Time *o = v + i * lanes;
                for (size_t l = 0; l < lanes; ++l)
                    o[l] = c;
            }
            break;
          case PlanOp::Min2: {
            uint32_t e = prog.argBeg[i];
            for (; i < end; ++i, e += 2) {
                const Time *a = rowOf(slot[e]);
                const Time *b = rowOf(slot[e + 1]);
                Time *o = v + i * lanes;
                for (size_t l = 0; l < lanes; ++l)
                    o[l] = std::bit_cast<Time>(
                        std::min(get(a, l), get(b, l)));
            }
            break;
          }
          case PlanOp::Max2: {
            uint32_t e = prog.argBeg[i];
            for (; i < end; ++i, e += 2) {
                const Time *a = rowOf(slot[e]);
                const Time *b = rowOf(slot[e + 1]);
                Time *o = v + i * lanes;
                for (size_t l = 0; l < lanes; ++l)
                    o[l] = std::bit_cast<Time>(
                        std::max(get(a, l), get(b, l)));
            }
            break;
          }
          case PlanOp::Lt2: {
            uint32_t e = prog.argBeg[i];
            for (; i < end; ++i, e += 2) {
                const Time *a = rowOf(slot[e]);
                const Time *b = rowOf(slot[e + 1]);
                Time *o = v + i * lanes;
                for (size_t l = 0; l < lanes; ++l) {
                    const Time::rep x = get(a, l);
                    o[l] =
                        std::bit_cast<Time>(x < get(b, l) ? x : inf);
                }
            }
            break;
          }
          case PlanOp::Min:
            // Lane-outer accumulation keeps the running value in a
            // register across the edge walk (no output-row re-reads).
            for (; i < end; ++i) {
                const uint32_t beg = prog.argBeg[i];
                const uint32_t eend = prog.argBeg[i + 1];
                Time *o = v + i * lanes;
                for (size_t l = 0; l < lanes; ++l) {
                    Time::rep m = sat(get(rowOf(slot[beg]), l),
                                      dly[beg]);
                    for (uint32_t e = beg + 1; e < eend; ++e)
                        m = std::min(
                            m, sat(get(rowOf(slot[e]), l), dly[e]));
                    o[l] = std::bit_cast<Time>(m);
                }
            }
            break;
          case PlanOp::Max:
            for (; i < end; ++i) {
                const uint32_t beg = prog.argBeg[i];
                const uint32_t eend = prog.argBeg[i + 1];
                Time *o = v + i * lanes;
                for (size_t l = 0; l < lanes; ++l) {
                    Time::rep m = sat(get(rowOf(slot[beg]), l),
                                      dly[beg]);
                    for (uint32_t e = beg + 1; e < eend; ++e)
                        m = std::max(
                            m, sat(get(rowOf(slot[e]), l), dly[e]));
                    o[l] = std::bit_cast<Time>(m);
                }
            }
            break;
          case PlanOp::Lt:
            for (; i < end; ++i) {
                const uint32_t beg = prog.argBeg[i];
                const Time *a = rowOf(slot[beg]);
                const Time *b = rowOf(slot[beg + 1]);
                const Time::rep da = dly[beg];
                const Time::rep db = dly[beg + 1];
                Time *o = v + i * lanes;
                for (size_t l = 0; l < lanes; ++l) {
                    const Time::rep x = sat(get(a, l), da);
                    o[l] = std::bit_cast<Time>(
                        x < sat(get(b, l), db) ? x : inf);
                }
            }
            break;
        }
    }
}

} // namespace

std::span<const EvalBody>
evalBodies()
{
    // Widest first. The x86 bodies exist when the compiler could build
    // their objects and run only after a CPUID probe; NEON is
    // architectural on aarch64.
    static const std::vector<EvalBody> table = [] {
        std::vector<EvalBody> t;
#ifdef ST_EVAL_BODY_AVX512F
        if (__builtin_cpu_supports("avx512f"))
            t.push_back(
                {"avx512", "eval.block.avx512", detail::runBlockAvx512});
#endif
#ifdef ST_EVAL_BODY_AVX2
        if (__builtin_cpu_supports("avx2"))
            t.push_back({"avx2", "eval.block.avx2", detail::runBlockAvx2});
#endif
#ifdef ST_EVAL_BODY_NEON
        t.push_back({"neon", "eval.block.neon", detail::runBlockNeon});
#endif
        t.push_back(
            {"scalar", "eval.block.scalar", runBlockImpl<kEvalBlockLanes>});
        return t;
    }();
    return table;
}

const char *
evalSimdBodyName()
{
    return evalBodies()[0].name;
}

void
runProgramBlock(const EvalProgramView &prog,
                std::span<const Node> nodes,
                std::span<const std::vector<Time>> batch,
                std::vector<Time> &values)
{
    values.resize(prog.size() * batch.size());
    if (batch.size() == kEvalBlockLanes) {
        // Entry 0 never changes within a process, so the counter this
        // call site caches on first use is always the right one.
        const EvalBody &body = evalBodies()[0];
        ST_OBS_ADD(body.counter, 1);
        body.run(prog, nodes, batch, values.data());
    } else {
        ST_OBS_ADD("eval.block.tail", 1);
        runBlockImpl<0>(prog, nodes, batch, values.data());
    }
}

void
EvalProgram::runBlock(std::span<const Node> nodes,
                      std::span<const std::vector<Time>> batch,
                      std::vector<Time> &values) const
{
    runProgramBlock(view(), nodes, batch, values);
}

EvalPlan
buildEvalPlan(const Network &net)
{
    ST_TRACE_SPAN("eval.compile");
    const std::vector<Node> &nodes = net.nodes();
    const std::vector<NodeId> &outputs = net.outputs();
    const size_t n = nodes.size();

    EvalPlan plan;
    plan.numNodes = n;
    plan.numInputs = net.numInputs();
    plan.full = buildFullProgram(nodes, outputs);

    // Liveness: a node is live iff its *own* value is needed — it is
    // an output, or a live non-inc consumer reaches it through inc
    // resolution. Inc nodes on the way are folded into edge delays and
    // stay dead unless they are outputs themselves. The reverse-id
    // sweep is a correct dataflow order because fanins (and hence inc
    // roots) always have smaller ids.
    std::vector<uint8_t> live(n, 0);
    for (NodeId out : outputs)
        live[out] = 1;
    for (size_t i = n; i-- > 0;) {
        if (!live[i])
            continue;
        const Node &node = nodes[i];
        if (node.op == Op::Inc) {
            live[resolveThroughIncs(nodes, node.fanin[0]).root] = 1;
        } else {
            for (NodeId src : node.fanin)
                live[resolveThroughIncs(nodes, src).root] = 1;
        }
    }

    // Schedule the live nodes by (dataflow level, op kind, id): any
    // order that places operand roots first is correct, and grouping a
    // level's same-kind instructions adjacently gives the executor
    // long homogeneous runs (one dispatch per run). Levels are
    // computed in id order, so operand roots — always smaller ids —
    // are done first; stable_sort keeps id order inside a group, so
    // the schedule is a pure function of the graph.
    std::vector<uint32_t> level(n, 0);
    for (size_t i = 0; i < n; ++i) {
        if (!live[i])
            continue;
        const Node &node = nodes[i];
        uint32_t lvl = 0;
        if (node.op == Op::Inc) {
            lvl = level[resolveThroughIncs(nodes, node.fanin[0]).root]
                + 1;
        } else {
            for (NodeId src : node.fanin)
                lvl = std::max(
                    lvl, level[resolveThroughIncs(nodes, src).root] + 1);
        }
        level[i] = lvl;
    }
    std::vector<uint8_t> kind(n, 0);
    std::vector<uint32_t> sched;
    for (size_t i = 0; i < n; ++i) {
        if (live[i]) {
            kind[i] = static_cast<uint8_t>(liveOpOf(nodes, nodes[i]));
            sched.push_back(static_cast<uint32_t>(i));
        }
    }
    std::stable_sort(sched.begin(), sched.end(),
                     [&](uint32_t a, uint32_t b) {
                         if (level[a] != level[b])
                             return level[a] < level[b];
                         return kind[a] < kind[b];
                     });

    constexpr uint32_t kDead = ~uint32_t{0};
    std::vector<uint32_t> slotOf(n, kDead);
    for (size_t k = 0; k < sched.size(); ++k)
        slotOf[sched[k]] = static_cast<uint32_t>(k);
    plan.deadNodes = n - sched.size();

    EvalProgram &prog = plan.live;
    prog.op.reserve(sched.size());
    prog.extra.reserve(sched.size());
    prog.argBeg.reserve(sched.size() + 1);
    prog.argBeg.push_back(0);
    auto emitEdge = [&](NodeId src, Time::rep extra_delay) {
        ResolvedEdge edge = resolveThroughIncs(nodes, src);
        pushEdge(prog, slotOf[edge.root],
                 foldDelay(edge.delay, extra_delay));
        plan.fusedIncs += edge.hops;
    };
    for (uint32_t i : sched) {
        const Node &node = nodes[i];
        switch (node.op) {
          case Op::Input:
            pushInstr(prog, PlanOp::Input, static_cast<uint32_t>(i));
            break;
          case Op::Config:
            pushInstr(prog, PlanOp::Config, static_cast<uint32_t>(i));
            plan.configNodes.push_back(i);
            break;
          case Op::Inc:
            // A live inc (an output tap): 1-ary min over its chain.
            pushInstr(prog, PlanOp::Min, 0);
            emitEdge(node.fanin[0], node.delay);
            break;
          default:
            pushInstr(prog, static_cast<PlanOp>(kind[i]), 0);
            for (NodeId src : node.fanin)
                emitEdge(src, 0);
            break;
        }
        sealInstr(prog);
    }
    finalizeRuns(prog);
    prog.outSlot.reserve(outputs.size());
    for (NodeId out : outputs)
        prog.outSlot.push_back(slotOf[out]);
    ST_OBS_ADD("eval.compile.nodes", n);
    ST_OBS_ADD("eval.compile.dead_nodes", plan.deadNodes);
    ST_OBS_ADD("eval.compile.fused_incs", plan.fusedIncs);
    ST_OBS_ADD("eval.compile.live_instrs", prog.size());
    return plan;
}

} // namespace st
