#include "core/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/eval_plan.hpp"
#include "core/properties.hpp"
#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace st {

const char *
opName(Op op)
{
    switch (op) {
      case Op::Input:
        return "input";
      case Op::Config:
        return "config";
      case Op::Inc:
        return "inc";
      case Op::Min:
        return "min";
      case Op::Max:
        return "max";
      case Op::Lt:
        return "lt";
    }
    return "?";
}

Network::Network(size_t num_inputs)
    : numInputs_(num_inputs)
{
    nodes_.reserve(num_inputs);
    for (size_t i = 0; i < num_inputs; ++i)
        nodes_.push_back(Node{Op::Input, 0, INF, {}});
    labels_.resize(num_inputs);
}

Network::Network(const Network &other)
    : nodes_(other.nodes_), labels_(other.labels_),
      outputs_(other.outputs_), numInputs_(other.numInputs_)
{
}

Network &
Network::operator=(const Network &other)
{
    if (this != &other) {
        nodes_ = other.nodes_;
        labels_ = other.labels_;
        outputs_ = other.outputs_;
        numInputs_ = other.numInputs_;
        invalidatePlan();
    }
    return *this;
}

Network::Network(Network &&other) noexcept
    : nodes_(std::move(other.nodes_)),
      labels_(std::move(other.labels_)),
      outputs_(std::move(other.outputs_)),
      numInputs_(other.numInputs_),
      plan_(other.plan_.exchange(nullptr, std::memory_order_acq_rel))
{
}

Network &
Network::operator=(Network &&other) noexcept
{
    if (this != &other) {
        nodes_ = std::move(other.nodes_);
        labels_ = std::move(other.labels_);
        outputs_ = std::move(other.outputs_);
        numInputs_ = other.numInputs_;
        delete plan_.exchange(
            other.plan_.exchange(nullptr, std::memory_order_acq_rel),
            std::memory_order_acq_rel);
    }
    return *this;
}

Network::~Network()
{
    delete plan_.load(std::memory_order_relaxed);
}

void
Network::invalidatePlan()
{
    delete plan_.exchange(nullptr, std::memory_order_acq_rel);
}

const EvalPlan &
Network::compile() const
{
    if (const EvalPlan *hit = plan_.load(std::memory_order_acquire)) {
        ST_OBS_ADD("eval.compile.cache_hit", 1);
        return *hit;
    }
    ST_OBS_ADD("eval.compile.cache_miss", 1);
    auto *fresh = new EvalPlan(buildEvalPlan(*this));
    // Concurrent evaluators may race to compile; the CAS picks one
    // winner and losers discard their (identical) build.
    const EvalPlan *expected = nullptr;
    if (plan_.compare_exchange_strong(expected, fresh,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        return *fresh;
    }
    delete fresh;
    return *expected;
}

bool
Network::isCompiled() const
{
    return plan_.load(std::memory_order_acquire) != nullptr;
}

NodeId
Network::input(size_t i) const
{
    if (i >= numInputs_)
        throw std::out_of_range("Network: no such input");
    return static_cast<NodeId>(i);
}

void
Network::checkId(NodeId id) const
{
    if (id >= nodes_.size())
        throw std::out_of_range("Network: reference to nonexistent node");
}

NodeId
Network::addNode(Node node)
{
    for (NodeId src : node.fanin)
        checkId(src);
    nodes_.push_back(std::move(node));
    labels_.emplace_back();
    invalidatePlan();
    return static_cast<NodeId>(nodes_.size() - 1);
}

NodeId
Network::config(Time initial)
{
    return addNode(Node{Op::Config, 0, initial, {}});
}

void
Network::setConfig(NodeId id, Time value)
{
    checkId(id);
    if (nodes_[id].op != Op::Config)
        throw std::invalid_argument("Network: setConfig on non-config node");
    nodes_[id].configValue = value;
}

Time
Network::getConfig(NodeId id) const
{
    checkId(id);
    if (nodes_[id].op != Op::Config)
        throw std::invalid_argument("Network: getConfig on non-config node");
    return nodes_[id].configValue;
}

NodeId
Network::inc(NodeId src, Time::rep c)
{
    return addNode(Node{Op::Inc, c, INF, {src}});
}

NodeId
Network::min(NodeId a, NodeId b)
{
    return addNode(Node{Op::Min, 0, INF, {a, b}});
}

NodeId
Network::min(std::span<const NodeId> srcs)
{
    if (srcs.empty())
        throw std::invalid_argument("Network: min needs >= 1 operand");
    return addNode(Node{Op::Min, 0, INF, {srcs.begin(), srcs.end()}});
}

NodeId
Network::max(NodeId a, NodeId b)
{
    return addNode(Node{Op::Max, 0, INF, {a, b}});
}

NodeId
Network::max(std::span<const NodeId> srcs)
{
    if (srcs.empty())
        throw std::invalid_argument("Network: max needs >= 1 operand");
    return addNode(Node{Op::Max, 0, INF, {srcs.begin(), srcs.end()}});
}

NodeId
Network::lt(NodeId a, NodeId b)
{
    return addNode(Node{Op::Lt, 0, INF, {a, b}});
}

void
Network::markOutput(NodeId id)
{
    checkId(id);
    outputs_.push_back(id);
    invalidatePlan();
}

size_t
Network::countOf(Op op) const
{
    return static_cast<size_t>(
        std::count_if(nodes_.begin(), nodes_.end(),
                      [op](const Node &n) { return n.op == op; }));
}

size_t
Network::depth() const
{
    std::vector<size_t> d(nodes_.size(), 0);
    size_t result = 0;
    for (size_t i = 0; i < nodes_.size(); ++i) {
        const Node &n = nodes_[i];
        if (n.op == Op::Input || n.op == Op::Config)
            continue;
        size_t best = 0;
        for (NodeId src : n.fanin)
            best = std::max(best, d[src]);
        d[i] = best + 1;
        result = std::max(result, d[i]);
    }
    return result;
}

Time::rep
Network::totalIncStages() const
{
    Time::rep total = 0;
    for (const Node &n : nodes_) {
        if (n.op == Op::Inc)
            total += n.delay;
    }
    return total;
}

namespace {

/** The error every evaluation entry point throws for a misfit volley. */
[[noreturn]] void
throwArity(const std::string &volley, size_t width, size_t num_inputs)
{
    throw std::invalid_argument("Network: " + volley + " has " +
                                std::to_string(width) +
                                " inputs, network has " +
                                std::to_string(num_inputs));
}

} // namespace

std::vector<Time>
Network::evaluateAllInterpreted(std::span<const Time> inputs) const
{
    if (inputs.size() != numInputs_)
        throwArity("evaluate volley", inputs.size(), numInputs_);
    std::vector<Time> value(nodes_.size());
    for (size_t i = 0; i < nodes_.size(); ++i) {
        const Node &n = nodes_[i];
        switch (n.op) {
          case Op::Input:
            value[i] = inputs[i];
            break;
          case Op::Config:
            value[i] = n.configValue;
            break;
          case Op::Inc:
            value[i] = value[n.fanin[0]] + n.delay;
            break;
          case Op::Min: {
            Time m = INF;
            for (NodeId src : n.fanin)
                m = tmin(m, value[src]);
            value[i] = m;
            break;
          }
          case Op::Max: {
            Time m = 0_t;
            for (NodeId src : n.fanin)
                m = tmax(m, value[src]);
            value[i] = m;
            break;
          }
          case Op::Lt:
            value[i] = tlt(value[n.fanin[0]], value[n.fanin[1]]);
            break;
        }
    }
    return value;
}

std::vector<Time>
Network::evaluateInterpreted(std::span<const Time> inputs) const
{
    std::vector<Time> value = evaluateAllInterpreted(inputs);
    std::vector<Time> out;
    out.reserve(outputs_.size());
    for (NodeId id : outputs_)
        out.push_back(value[id]);
    return out;
}

namespace {

/** Per-thread arena so evaluate() allocates nothing once warm. */
EvalScratch &
threadScratch()
{
    static thread_local EvalScratch scratch;
    return scratch;
}

/**
 * True iff any of the plan's live Config nodes currently holds a
 * finite value. A finite configured constant legitimately produces
 * output spikes earlier than any input, so the runtime causality guard
 * only applies to config-free (or all-inf-config) evaluations. Config
 * values are live (setConfig does not recompile), hence the per-call
 * rescan of the — typically tiny — configNodes list.
 */
bool
hasFiniteConfig(std::span<const Node> nodes,
                std::span<const uint32_t> config_nodes)
{
    for (uint32_t id : config_nodes) {
        if (nodes[id].configValue.isFinite())
            return true;
    }
    return false;
}

} // namespace

std::vector<Time>
Network::evaluateAll(std::span<const Time> inputs) const
{
    if (inputs.size() != numInputs_)
        throwArity("evaluate volley", inputs.size(), numInputs_);
    std::vector<Time> value;
    compile().full.run(nodes_, inputs, value);
    return value;
}

void
Network::evaluateInto(std::span<const Time> inputs, EvalScratch &scratch,
                      std::vector<Time> &out) const
{
    if (inputs.size() != numInputs_)
        throwArity("evaluate volley", inputs.size(), numInputs_);
    const EvalPlan &plan = compile();
    const EvalProgram &prog = plan.live;
    prog.run(nodes_, inputs, scratch.values);
    out.resize(prog.outSlot.size());
    for (size_t k = 0; k < prog.outSlot.size(); ++k)
        out[k] = scratch.values[prog.outSlot[k]];
    if (fault::guardActive(fault::kGuardCausality) &&
        !hasFiniteConfig(nodes_, plan.configNodes)) {
        PropertyReport r = checkCausalityObserved(inputs, out);
        if (!r.holds)
            fault::reportViolation("causality", "core.evaluate",
                                   r.counterexample);
    }
}

std::vector<Time>
Network::evaluate(std::span<const Time> inputs) const
{
    // Evaluate into the per-thread scratch and gather the outputs
    // directly — no full node-value vector is materialized.
    std::vector<Time> out;
    evaluateInto(inputs, threadScratch(), out);
    return out;
}

std::vector<std::vector<Time>>
Network::evaluateBatch(std::span<const std::vector<Time>> batch,
                       size_t nthreads) const
{
    // Every volley is checked before any block runs: a misfit volley
    // rejects the whole batch, and the error names it.
    for (size_t i = 0; i < batch.size(); ++i) {
        if (batch[i].size() != numInputs_)
            throwArity("evaluateBatch volley " + std::to_string(i),
                       batch[i].size(), numInputs_);
    }
    // One compile up front (not one race per lane), then lane-blocked
    // execution: each unit of work is a block of kEvalBlockLanes
    // volleys pushed through the program together. The block layout is
    // a pure function of the batch, so results are bit-identical at
    // every thread count.
    ST_TRACE_SPAN("eval.batch");
    ST_OBS_ADD("eval.batch.volleys", batch.size());
    const EvalPlan &plan = compile();
    const EvalProgram &prog = plan.live;
    const bool guard_causality =
        fault::guardActive(fault::kGuardCausality) &&
        !hasFiniteConfig(nodes_, plan.configNodes);
    std::vector<std::vector<Time>> out(batch.size());
    const size_t blocks =
        (batch.size() + kEvalBlockLanes - 1) / kEvalBlockLanes;
    size_t lanes = nthreads == 0 ? ThreadPool::defaultThreads()
                                 : nthreads;
    ThreadPool::shared().parallelFor(
        0, blocks, 1,
        [&](size_t blk) {
            const size_t begin = blk * kEvalBlockLanes;
            const size_t count =
                std::min(kEvalBlockLanes, batch.size() - begin);
            EvalScratch &scratch = threadScratch();
            prog.runBlock(nodes_, batch.subspan(begin, count),
                          scratch.values);
            for (size_t l = 0; l < count; ++l) {
                std::vector<Time> &o = out[begin + l];
                o.resize(prog.outSlot.size());
                for (size_t k = 0; k < prog.outSlot.size(); ++k) {
                    o[k] = scratch.values[size_t{prog.outSlot[k]} *
                                              count +
                                          l];
                }
                if (guard_causality) {
                    PropertyReport r =
                        checkCausalityObserved(batch[begin + l], o);
                    if (!r.holds) {
                        fault::reportViolation(
                            "causality",
                            "core.evaluateBatch.volley" +
                                std::to_string(begin + l),
                            r.counterexample);
                    }
                }
            }
        },
        lanes);
    return out;
}

std::vector<NodeId>
Network::append(const Network &sub, std::span<const NodeId> actuals)
{
    if (actuals.size() != sub.numInputs())
        throw std::invalid_argument("Network: append input count mismatch");
    for (NodeId id : actuals)
        checkId(id);

    std::vector<NodeId> map(sub.nodes_.size());
    for (size_t i = 0; i < sub.nodes_.size(); ++i) {
        const Node &n = sub.nodes_[i];
        if (n.op == Op::Input) {
            map[i] = actuals[i];
            continue;
        }
        Node copy = n;
        for (NodeId &src : copy.fanin)
            src = map[src];
        map[i] = addNode(std::move(copy));
        if (!sub.labels_[i].empty())
            labels_.back() = sub.labels_[i];
    }

    std::vector<NodeId> outs;
    outs.reserve(sub.outputs_.size());
    for (NodeId id : sub.outputs_)
        outs.push_back(map[id]);
    return outs;
}

void
Network::setLabel(NodeId id, std::string label)
{
    checkId(id);
    labels_[id] = std::move(label);
}

const std::string &
Network::label(NodeId id) const
{
    checkId(id);
    return labels_[id];
}

} // namespace st
