/**
 * @file
 * Compiled evaluation plans for space-time networks.
 *
 * Network::evaluateAllInterpreted walks the node graph as built: one
 * heap-allocated fanin vector per node, a fresh value vector per call,
 * and a switch over every node kind including pure-delay incs. That is
 * fine for a dozen nodes but dominates the runtime of append()-built
 * giants (the Fig. 10 sorters and Fig. 12 SRM0 columns), where the
 * graph is large, mostly binary min/max, and rich in inc chains.
 *
 * An EvalPlan is a one-time compilation of the graph into a flat SoA
 * instruction stream evaluated with zero allocations on the steady
 * state path:
 *
 *   - flatten:    operands live in one contiguous CSR array (slot +
 *                 folded delay per edge) instead of per-node vectors;
 *   - DCE:        nodes that reach no output are dropped from the
 *                 evaluate() program (evaluateAll keeps every node);
 *   - inc fusion: chains of inc blocks collapse into the consuming
 *                 edge's delay constant, so pure-delay nodes cost
 *                 nothing at run time (saturation semantics are
 *                 preserved exactly — see foldDelay());
 *   - arena:      values are written into a caller-owned EvalScratch
 *                 whose capacity persists across volleys.
 *
 * The compiled program is bit-identical to the interpreter on every
 * input (tests/compiled_eval_test.cpp sweeps the equivalence), and
 * config nodes are read live from the Network at evaluation time, so
 * setConfig() never invalidates a plan.
 */

#ifndef ST_CORE_EVAL_PLAN_HPP
#define ST_CORE_EVAL_PLAN_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "core/time.hpp"

namespace st {

struct Node;
class Network;

/**
 * Reusable evaluation buffers. One per thread (or per call site); the
 * vectors keep their capacity between volleys, so a warmed-up scratch
 * makes evaluation allocation-free.
 */
struct EvalScratch
{
    std::vector<Time> values; //!< one slot per live instruction
};

/**
 * Instruction kinds of a compiled program (inc folds into edges).
 *
 * The generic forms read a folded delay per operand edge. The binary
 * fast forms require every operand delay to be zero — the overwhelming
 * majority of instructions in sorter-style networks — and skip the
 * delay array entirely.
 */
enum class PlanOp : uint8_t
{
    Input,  //!< load inputs[extra]
    Config, //!< load nodes[extra].configValue (live read)
    Min,    //!< n-ary first arrival, per-edge delays
    Max,    //!< n-ary last arrival, per-edge delays
    Lt,     //!< strictly-earlier gate, per-edge delays
    Min2,   //!< binary min, all edge delays zero
    Max2,   //!< binary max, all edge delays zero
    Lt2,    //!< strictly-earlier gate, all edge delays zero
};

/**
 * Non-owning view of a flattened instruction stream: the exact array
 * septet an EvalProgram owns, as spans. The executors (scalar, SIMD,
 * lane-blocked) all run on this form, so a program whose arrays live
 * in an mmap'd STMF model file (model/serialize.hpp) executes in
 * place — startup is a map + fixup, not a parse + recompile — while
 * EvalProgram::run()/runBlock() delegate through view() unchanged.
 *
 * Invariants assumed by the executors (the compiler guarantees them;
 * the STMF loader re-validates them on every untrusted stream):
 * argBeg has size()+1 monotone entries bounding argSlot/argDelay;
 * every argSlot references a *smaller* instruction index; runEnd is
 * strictly increasing and ends at size(); Input/Config extra indexes
 * are in range.
 */
struct EvalProgramView
{
    std::span<const uint8_t> op;
    std::span<const uint32_t> extra;
    std::span<const uint32_t> argBeg;
    std::span<const uint32_t> argSlot;
    std::span<const Time::rep> argDelay;
    std::span<const uint32_t> outSlot;
    std::span<const uint32_t> runEnd;

    /** Number of instructions (== number of value slots). */
    size_t size() const { return op.size(); }
};

/**
 * Execute @p prog on one input volley; see EvalProgram::run().
 * @p nodes is read only by Config instructions (live value reads) and
 * may be any table whose configValue entries are correct at the
 * instruction's extra index — the mmap'd model path feeds a minimal
 * rebuilt table, the Network path its real node vector.
 */
void runProgram(const EvalProgramView &prog,
                std::span<const Node> nodes,
                std::span<const Time> inputs,
                std::vector<Time> &values);

/** Lane-blocked execution of @p prog; see EvalProgram::runBlock(). */
void runProgramBlock(const EvalProgramView &prog,
                     std::span<const Node> nodes,
                     std::span<const std::vector<Time>> batch,
                     std::vector<Time> &values);

/**
 * One flattened instruction stream. Instruction i writes value slot i;
 * operand edges are stored CSR-style as (slot, delay) pairs, where the
 * delay is the folded constant of any inc chain between the producing
 * instruction and this operand.
 */
struct EvalProgram
{
    std::vector<uint8_t> op;         //!< PlanOp per instruction
    std::vector<uint32_t> extra;     //!< Input/Config: source index
    std::vector<uint32_t> argBeg;    //!< CSR offsets (size instrs + 1)
    std::vector<uint32_t> argSlot;   //!< operand value slot per edge
    std::vector<Time::rep> argDelay; //!< folded edge delay
    std::vector<uint32_t> outSlot;   //!< output gather slots
    /** One-past-the-end instruction index of each maximal same-op run.
     *  The executor dispatches once per run, not once per instruction;
     *  the live program is scheduled (level-grouped) to make runs
     *  long. */
    std::vector<uint32_t> runEnd;

    /** Number of instructions (== number of value slots). */
    size_t size() const { return op.size(); }

    /** Span view of the owned arrays (what the executors consume). */
    EvalProgramView
    view() const
    {
        return {op, extra, argBeg, argSlot, argDelay, outSlot, runEnd};
    }

    /**
     * Execute the stream, resizing @p values to one slot per
     * instruction (no allocation once the capacity is warm).
     * @p nodes is the owning network's node table, read only for
     * Config instructions.
     */
    void run(std::span<const Node> nodes, std::span<const Time> inputs,
             std::vector<Time> &values) const;

    /**
     * Lane-blocked execution: evaluate the program for every volley in
     * @p batch at once. @p values is laid out slot-major — instruction
     * i's value for volley l lands in values[i * batch.size() + l] —
     * so each instruction becomes a handful of *contiguous* row
     * operations shared across the block, instead of batch.size()
     * scattered single-volley walks. Instruction-stream overhead
     * (dispatch, slot loads) is paid once per block.
     */
    void runBlock(std::span<const Node> nodes,
                  std::span<const std::vector<Time>> batch,
                  std::vector<Time> &values) const;
};

/** Block width evaluateBatch feeds to EvalProgram::runBlock. */
inline constexpr size_t kEvalBlockLanes = 8;

/** A full-block executor body: an entry of the evalBodies() table. */
struct EvalBody
{
    const char *name;    //!< "avx512", "avx2", "neon" or "scalar"
    const char *counter; //!< obs counter of blocks dispatched to it
    /**
     * Run @p prog on exactly kEvalBlockLanes volleys, writing the
     * slot-major rows EvalProgram::runBlock documents into @p values,
     * which the caller sizes to prog.size() * kEvalBlockLanes.
     */
    void (*run)(const EvalProgramView &prog, std::span<const Node> nodes,
                std::span<const std::vector<Time>> batch, Time *values);
};

/**
 * The full-block bodies this CPU can run, widest ISA first and ending
 * with the portable scalar body. Built once per process; runBlock
 * dispatches every full block to entry 0, and tests and benches reach
 * the others through the same table.
 */
std::span<const EvalBody> evalBodies();

/**
 * The body runBlock dispatches full blocks to on this machine (the
 * name of evalBodies()[0]). Health snapshots report it so an operator
 * can tell which executor a deployment actually runs.
 */
const char *evalSimdBodyName();

/** A network's compiled evaluation plan (built by Network::compile). */
struct EvalPlan
{
    /** DCE'd + inc-fused program for evaluate()/evaluateBatch(). */
    EvalProgram live;
    /** Per-node program (slot == NodeId) for evaluateAll(). */
    EvalProgram full;

    size_t numNodes = 0;  //!< node count the plan was built from
    size_t numInputs = 0; //!< input arity
    size_t deadNodes = 0; //!< nodes dropped by DCE
    /**
     * Node ids of the live program's Config instructions. Config
     * values are read live (setConfig never invalidates a plan), so
     * consumers that care — e.g. the runtime causality guard, which a
     * finite config value would trip spuriously because configured
     * constants fall independently of the input volley — must rescan
     * these nodes per use, not bake a flag in at build time.
     */
    std::vector<uint32_t> configNodes;
    /** Inc hops folded into operand edges (a chain shared by several
     *  consumers counts once per consuming edge). */
    size_t fusedIncs = 0;
};

/** Compile @p net into an evaluation plan (pure; does not cache). */
EvalPlan buildEvalPlan(const Network &net);

namespace detail {

/**
 * The vector body (eval_plan_simd.cpp), one source compiled once per
 * ISA: -mavx2 and -mavx512f objects on x86-64, baseline on aarch64.
 * Only the objects the build produced are defined, and evalBodies()
 * lists only those the CPU supports.
 */
void runBlockAvx2(const EvalProgramView &prog, std::span<const Node> nodes,
                  std::span<const std::vector<Time>> batch, Time *values);

void runBlockAvx512(const EvalProgramView &prog, std::span<const Node> nodes,
                    std::span<const std::vector<Time>> batch, Time *values);

void runBlockNeon(const EvalProgramView &prog, std::span<const Node> nodes,
                  std::span<const std::vector<Time>> batch, Time *values);

} // namespace detail

} // namespace st

#endif // ST_CORE_EVAL_PLAN_HPP
