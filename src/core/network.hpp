/**
 * @file
 * Feedforward space-time computing networks (paper Sec. III.C).
 *
 * A Network is a DAG of primitive functional blocks over the s-t algebra:
 * inputs, inc (constant delay), n-ary min, n-ary max, binary lt, and
 * mutable configuration constants (used for the paper's micro-weights,
 * Sec. IV.B). Nodes may only reference previously created nodes, so
 * construction order is a topological order and Lemma 1 (every such
 * network implements an s-t function) holds structurally.
 *
 * The builder API mirrors how the paper composes networks (Figs. 6, 8, 9,
 * 12, 14, 15): create a network with q inputs, call inc/min/max/lt to add
 * blocks, mark outputs, then evaluate() input volleys. append() embeds one
 * network inside another, which is how the SRM0 construction reuses
 * bitonic sorters.
 */

#ifndef ST_CORE_NETWORK_HPP
#define ST_CORE_NETWORK_HPP

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/algebra.hpp"
#include "core/time.hpp"

namespace st {

struct EvalPlan;
struct EvalScratch;

/** Primitive block kinds available in a space-time network. */
enum class Op : uint8_t
{
    Input,  //!< primary input line
    Config, //!< configuration constant (micro-weight), value 0 or inf
    Inc,    //!< delay by a constant c (c chained +1 blocks)
    Min,    //!< n-ary first-arrival (lattice meet)
    Max,    //!< n-ary last-arrival (lattice join; derivable, Lemma 2)
    Lt,     //!< binary strictly-earlier gate
};

/** Printable name of an op ("inc", "min", ...). */
const char *opName(Op op);

/** Node identifier within a Network. */
using NodeId = uint32_t;

/** One functional block instance. */
struct Node
{
    Op op = Op::Input;
    Time::rep delay = 0;         //!< Inc only: the added constant
    Time configValue = INF;      //!< Config only: current setting
    std::vector<NodeId> fanin;   //!< operand nodes (Lt: exactly [a, b])
};

/**
 * A feedforward space-time computing network.
 *
 * Inputs are implicitly nodes [0, numInputs()). All builder methods
 * validate operand ids, guaranteeing the graph stays a DAG in id order.
 *
 * Evaluation runs on a lazily compiled plan (eval_plan.hpp): the first
 * evaluate()/evaluateAll() flattens the graph into a contiguous
 * instruction stream (with dead-node elimination and inc-chain fusion
 * on the output path) and caches it. Structural mutation (adding
 * blocks, marking outputs) invalidates the plan; setConfig() does not,
 * because config values are read live at evaluation time.
 *
 * Thread safety: the const evaluation path (evaluate, evaluateAll,
 * evaluateBatch, evaluateInto, compile) may be called concurrently —
 * the plan cache publishes via an atomic compare-exchange, so racing
 * compilers agree on one winner. Mutation is single-writer and must
 * not overlap any other call on the same Network.
 */
class Network
{
  public:
    /** Create a network with @p num_inputs primary inputs. */
    explicit Network(size_t num_inputs);

    /** Copies recompile lazily; the plan cache is not shared. */
    Network(const Network &other);
    Network &operator=(const Network &other);
    Network(Network &&other) noexcept;
    Network &operator=(Network &&other) noexcept;
    ~Network();

    /** Node id of primary input @p i. */
    NodeId input(size_t i) const;

    /** Number of primary inputs. */
    size_t numInputs() const { return numInputs_; }

    /**
     * Add a configuration constant node (micro-weight).
     *
     * Only 0 (disable) and inf (enable) preserve shift invariance of the
     * network's data inputs; arbitrary finite values are permitted for
     * experimentation but flagged by the property checkers.
     */
    NodeId config(Time initial = INF);

    /** Reprogram a Config node (e.g., set a synaptic micro-weight). */
    void setConfig(NodeId id, Time value);

    /** Read a Config node's current value. */
    Time getConfig(NodeId id) const;

    /** Add an inc block: out = src + c. */
    NodeId inc(NodeId src, Time::rep c = 1);

    /** Add a binary min block. */
    NodeId min(NodeId a, NodeId b);

    /** Add an n-ary min block (n >= 1). */
    NodeId min(std::span<const NodeId> srcs);

    /** Add a binary max block. */
    NodeId max(NodeId a, NodeId b);

    /** Add an n-ary max block (n >= 1). */
    NodeId max(std::span<const NodeId> srcs);

    /** Add an lt block: out = a if a < b else inf. */
    NodeId lt(NodeId a, NodeId b);

    /** Declare @p id a network output (outputs are ordered). */
    void markOutput(NodeId id);

    /** Ordered output node ids. */
    const std::vector<NodeId> &outputs() const { return outputs_; }

    /** Total node count (including inputs and configs). */
    size_t size() const { return nodes_.size(); }

    /** All nodes in topological (construction) order. */
    const std::vector<Node> &nodes() const { return nodes_; }

    /** Count nodes of one kind. */
    size_t countOf(Op op) const;

    /**
     * Logic depth: the longest input-to-output path counted in functional
     * blocks (inputs and configs are depth 0; an inc counts once
     * regardless of its constant).
     */
    size_t depth() const;

    /**
     * Total delay-line cost: the sum of all inc constants. In a GRL
     * implementation this is the number of shift-register stages.
     */
    Time::rep totalIncStages() const;

    /**
     * Compile (or fetch) the cached evaluation plan. Idempotent and
     * safe under concurrent callers; called implicitly by the
     * evaluation methods. Exposed so batch drivers and constructions
     * can pay the one-time cost eagerly, and so tests can inspect the
     * DCE / inc-fusion statistics.
     */
    const EvalPlan &compile() const;

    /** True iff a compiled plan is currently cached. */
    bool isCompiled() const;

    /**
     * Evaluate the network on one input volley (on the compiled plan).
     *
     * @param inputs  One Time per primary input.
     * @return One Time per marked output, in markOutput() order.
     */
    std::vector<Time> evaluate(std::span<const Time> inputs) const;

    /**
     * Zero-allocation evaluate(): node values go into @p scratch and
     * the outputs are gathered into @p out (resized to the output
     * count). With a warmed-up scratch and out, the steady-state path
     * performs no heap allocation at all — the form the batch engines
     * use per worker lane.
     */
    void evaluateInto(std::span<const Time> inputs, EvalScratch &scratch,
                      std::vector<Time> &out) const;

    /**
     * Evaluate and return the value of every node (inputs, configs and
     * internal blocks included), indexed by NodeId. Used by the trace
     * simulator, the GRL equivalence tests, and network debugging.
     * Runs on the compiled plan's full (non-DCE'd) program.
     */
    std::vector<Time> evaluateAll(std::span<const Time> inputs) const;

    /**
     * Reference interpreter: the direct walk over the node graph the
     * compiled plan must reproduce bit-for-bit. Kept as the oracle for
     * the differential tests and the baseline for the speedup benches.
     */
    std::vector<Time>
    evaluateInterpreted(std::span<const Time> inputs) const;

    /** Reference interpreter for evaluateAll(). */
    std::vector<Time>
    evaluateAllInterpreted(std::span<const Time> inputs) const;

    /**
     * Evaluate a batch of independent input volleys, fanned out across
     * up to @p nthreads lanes of the shared pool (0 = ST_NUM_THREADS
     * or the hardware concurrency, 1 = serial loop). Evaluation is
     * pure, so out[i] == evaluate(batch[i]) bit-for-bit — including
     * the tie-blocking law lt(a, a) = inf — for every thread count.
     */
    std::vector<std::vector<Time>>
    evaluateBatch(std::span<const std::vector<Time>> batch,
                  size_t nthreads = 0) const;

    /**
     * Embed a copy of @p sub into this network.
     *
     * @param sub      Network to embed.
     * @param actuals  One existing node of *this* per input of @p sub.
     * @return The ids (in this network) corresponding to @p sub's outputs.
     *
     * Config nodes of @p sub are copied with their current values and
     * remain independently programmable via the returned network.
     */
    std::vector<NodeId> append(const Network &sub,
                               std::span<const NodeId> actuals);

    /** Attach a debug label to a node (used by DOT export). */
    void setLabel(NodeId id, std::string label);

    /** Read a node's label ("" if unset). */
    const std::string &label(NodeId id) const;

  private:
    NodeId addNode(Node node);
    void checkId(NodeId id) const;

    /** Drop the cached plan after a structural change (single-writer,
     *  like all mutation — see the class comment). */
    void invalidatePlan();

    std::vector<Node> nodes_;
    std::vector<std::string> labels_;
    std::vector<NodeId> outputs_;
    size_t numInputs_;

    /**
     * Lazily compiled plan, published with a compare-exchange so
     * concurrent const evaluators can build it without locking (losers
     * discard their build).
     */
    mutable std::atomic<const EvalPlan *> plan_{nullptr};
};

} // namespace st

#endif // ST_CORE_NETWORK_HPP
