/**
 * @file
 * Excitatory TNN columns with WTA lateral inhibition (paper Sec. II.C,
 * IV.C; Fig. 4's building block).
 *
 * A Column is a bank of SRM0 excitatory neurons sharing one input volley,
 * followed by bulk winner-take-all inhibition. Synaptic weights are
 * low-resolution (0..maxWeight discrete levels, per the paper's 3-4 bit
 * argument); training keeps continuous shadow weights in [0, 1] updated
 * by a local STDP rule, while evaluation always uses the quantized
 * weights — exactly what a micro-weight (Fig. 14) hardware column would
 * compute. Training is unsupervised WTA-learning: only the earliest-
 * firing neuron updates, so neurons tune to distinct recurring patterns
 * (Guyonneau [21], Masquelier [37]).
 */

#ifndef ST_TNN_LAYER_HPP
#define ST_TNN_LAYER_HPP

#include <compare>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "neuron/response.hpp"
#include "neuron/srm0_reference.hpp"
#include "tnn/stdp.hpp"
#include "tnn/volley.hpp"
#include "util/rng.hpp"

namespace st {

/** Response-function shape used by a column's synapses. */
enum class ResponseShape : uint8_t
{
    Step,            //!< non-leaky integrate-and-fire (most TNN papers)
    Biexponential,   //!< Fig. 2a leaky response
    PiecewiseLinear, //!< Fig. 2b Maass approximation
};

/** Static configuration of a column. */
struct ColumnParams
{
    size_t numInputs = 0;
    size_t numNeurons = 0;
    /** Firing threshold theta, in amplitude units. */
    ResponseFunction::Amp threshold = 1;
    /** Discrete weight levels (7 => 3-bit weights). */
    size_t maxWeight = 7;
    ResponseShape shape = ResponseShape::Step;
    double tauSlow = 4.0; //!< biexponential slow decay
    double tauFast = 1.0; //!< biexponential fast decay
    Time::rep rise = 2;   //!< piecewise-linear rise
    Time::rep fall = 6;   //!< piecewise-linear fall
    /** tau-WTA window applied by process(); 0 disables. */
    Time::rep wtaTau = 1;
    /** k-WTA cap applied after the window; 0 disables. */
    size_t wtaK = 1;
    /** Mean of the random initial weights. */
    double initWeight = 0.5;
    /** Uniform half-width of initial-weight jitter. */
    double initJitter = 0.2;
    /**
     * Training-time fatigue (the classic "conscience" mechanism): a
     * neuron that has already won this many times more than the
     * least-winning neuron sits out of the training competition, so
     * every neuron eventually specializes on some pattern. 0 disables.
     * Inference (process()) is never affected.
     */
    size_t fatigue = 0;
    uint64_t seed = 0x5eed;
};

/** One training-step outcome. */
struct TrainResult
{
    std::optional<size_t> winner; //!< earliest-firing neuron, if any
    Time spikeTime = INF;         //!< the winner's spike time
};

/**
 * A column of SRM0 neurons with shared input and lateral inhibition.
 *
 * Evaluation follows the Fig. 12 rule rather than a tick-by-tick scan:
 * a synapse's response is a list of (offset, amplitude delta) steps,
 * so a neuron's potential changes only at spike-plus-offset events,
 * and its output is the first event time at which the running sum,
 * with every event at that time applied, reaches theta. The column
 * keeps each neuron's quantized weight levels in one row-major table
 * and each level's steps once, so the cost per volley grows with the
 * number of events, never with the time between them. The answer is
 * bit-for-bit Srm0Neuron::fire() on neuronModel(), which the tests
 * hold it to.
 *
 * Thread safety: the const evaluation path (rawFireTimes, process,
 * potentialAt, neuronModel) may be called from any number of threads
 * concurrently; each thread sweeps in its own scratch. Mutation
 * (trainStep, trainBatch, setWeights, resetFatigue, assignment) is
 * single-writer: it must not overlap any other call on the same
 * Column. The batch engine respects this by separating the parallel
 * read phase from the serial merge phase.
 */
class Column
{
  public:
    explicit Column(const ColumnParams &params);

    /**
     * Construct with the weight matrix supplied directly: one row per
     * neuron, each row numInputs wide (arity-checked). This is the
     * deserialization fast path — it skips the seeded random init
     * that the supplied weights would immediately overwrite. Value
     * ranges are the caller's contract (the STMF decoder range-checks
     * every weight before constructing).
     */
    Column(const ColumnParams &params,
           std::vector<std::vector<double>> weights);

    /** Column configuration. */
    const ColumnParams &params() const { return params_; }

    /**
     * Fire every neuron on the volley (no inhibition): the raw spike
     * times a downstream WTA sees.
     */
    std::vector<Time> rawFireTimes(std::span<const Time> inputs) const;

    /** rawFireTimes() into a caller-owned buffer (capacity reused). */
    void rawFireTimesInto(std::span<const Time> inputs,
                          std::vector<Time> &out) const;

    /**
     * Full forward step: fire all neurons, then apply tau-WTA and k-WTA
     * inhibition per the column parameters.
     */
    Volley process(std::span<const Time> inputs) const;

    /**
     * process() into a caller-owned buffer: identical results, but the
     * buffer's capacity is reused across calls — the batch engine's
     * steady state allocates nothing per volley. @p out must not alias
     * @p inputs.
     */
    void processInto(std::span<const Time> inputs, Volley &out) const;

    /**
     * One unsupervised WTA-learning step: the earliest-firing neuron
     * (ties to the lowest index) updates its weights with @p rule.
     * With params().fatigue > 0, neurons far ahead in win count are
     * excluded from this step's competition (see ColumnParams).
     */
    TrainResult trainStep(std::span<const Time> inputs,
                          const StdpRule &rule);

    /**
     * One mini-batch of unsupervised WTA-learning: every volley's
     * winner is selected against the batch-start weights and fatigue
     * counters (in parallel across @p nthreads lanes, 0 = default),
     * then the weight updates and win counts are merged serially in
     * sample order. The merge order is a pure function of the batch,
     * so the resulting weights are bit-identical for every thread
     * count. Note the semantics differ from a trainStep() loop:
     * within one batch, later samples do not see earlier samples'
     * updates (classic mini-batch STDP).
     *
     * @return Number of volleys in which some neuron fired.
     */
    size_t trainBatch(std::span<const Volley> inputs,
                      const StdpRule &rule, size_t nthreads = 0);

    /**
     * The scan/merge halves of trainBatch(), exposed so the pipelined
     * batch engine (TnnNetwork::trainLayerBatched) can fuse the winner
     * scan into its per-block dataflow stages instead of paying a
     * second full-batch pass behind a barrier.
     *
     * Contract: call leastWins() once at the mini-batch boundary, run
     * any number of concurrent scanWinner() calls against the frozen
     * weights (const, thread-safe — same guarantee as process()), and
     * apply the collected slots with one serial applyTrainEvents().
     * No mutation may overlap the scans.
     */
    size_t leastWins() const;

    /** One sample's winner against the current (frozen) weights. The
     *  returned event's sample field is 0; the caller assigns it. */
    std::optional<TrainEvent>
    scanWinner(std::span<const Time> inputs, size_t least_wins) const;

    /**
     * Serially merge per-sample winner slots in sample order and apply
     * the weight updates (mini-batch semantics; see trainBatch()).
     * slots[i] must have sample == i set, and @p inputs[i] must be the
     * volley slot i was scanned on.
     *
     * @return Number of slots in which some neuron fired.
     */
    size_t applyTrainEvents(
        std::span<const std::optional<TrainEvent>> slots,
        std::span<const Volley> inputs, const StdpRule &rule);

    /** Times neuron @p neuron has won a training step. */
    size_t winCount(size_t neuron) const;

    /** Clear all fatigue win counters. */
    void resetFatigue();

    /** Continuous shadow weights of one neuron (training state). */
    const std::vector<double> &weights(size_t neuron) const;

    /** Overwrite one neuron's shadow weights (e.g., to seed a test). */
    void setWeights(size_t neuron, std::vector<double> w);

    /** Quantized (hardware) weights of one neuron. */
    std::vector<size_t> discreteWeights(size_t neuron) const;

    /**
     * Body potential of @p neuron at absolute time @p t on @p inputs:
     * Srm0Neuron::potentialAt() of neuronModel(), read from the level
     * table (the training tie-break).
     */
    ResponseFunction::Amp potentialAt(size_t neuron,
                                      std::span<const Time> inputs,
                                      Time::rep t) const;

    /**
     * The reference SRM0 model a neuron currently implements (quantized
     * weights applied to the response family), built on each call: the
     * oracle the event sweep is tested against.
     */
    Srm0Neuron neuronModel(size_t neuron) const;

    /** The weight-indexed response family used by every synapse. */
    const std::vector<ResponseFunction> &family() const { return family_; }

  private:
    /** A finite input spike: its time and the input it arrived on,
     *  ordered by (time, input). */
    struct Spike
    {
        Time::rep time;
        size_t input;

        auto operator<=>(const Spike &) const = default;
    };

    /** A level's response as the sweep reads it: the jump at the
     *  spike itself, then the later steps steps_[begin, end). */
    struct LevelSteps
    {
        ResponseFunction::Amp atSpike;
        size_t begin;
        size_t end;
    };

    /** Build the step tables from family_ and every level row. */
    void buildTables();

    /** Re-quantize one neuron's row of the level table. */
    void rebuildRow(size_t neuron);

    /**
     * The Fig. 12 rule for one neuron: sweep its events in time order
     * over @p spikes, sorted by (time, input), and return the first
     * event time at which the potential reaches theta, or inf.
     */
    Time sweep(size_t neuron, std::span<const Spike> spikes) const;

    /**
     * The trainStep()/trainBatch() competition: earliest spike wins,
     * simultaneous spikes go to the highest potential, with neurons
     * more than params().fatigue wins ahead of @p least_wins excluded.
     * Pure (no mutation); the returned event's sample field is 0.
     */
    std::optional<TrainEvent>
    selectWinner(std::span<const Time> inputs, size_t least_wins) const;

    ColumnParams params_;
    std::vector<ResponseFunction> family_; //!< indexed by discrete weight
    std::vector<std::vector<double>> weights_; //!< [neuron][input]
    std::vector<size_t> winCount_;             //!< fatigue bookkeeping
    /** Quantized weights, [neuron * numInputs + input]; a row is
     *  rebuilt whenever that neuron's weights change. */
    std::vector<uint32_t> levels_;
    /** Indexed by level: family_[l].steps() as a LevelSteps. */
    std::vector<LevelSteps> levelSteps_;
    std::vector<ResponseFunction::Step> steps_;
};

} // namespace st

#endif // ST_TNN_LAYER_HPP
