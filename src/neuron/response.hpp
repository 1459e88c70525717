/**
 * @file
 * Synaptic response functions (paper Sec. II.A Fig. 2, Sec. IV.A Fig. 11).
 *
 * A response function R(t) maps discretized time to integer amplitude
 * units: the change a single input spike induces in the neuron's body
 * potential. Per the paper's broad definition, the only constraints are
 * that R reaches a fixed final value after finite time t_max and stays
 * within finite bounds. A response is representable as a sequence of unit
 * up-steps and down-steps — precisely the form the Fig. 11 fanout/inc
 * network materializes and the Fig. 12 SRM0 construction consumes.
 *
 * Provided shapes:
 *  - biexponential: difference of two exponential decays (Fig. 2a),
 *    the biologically-based excitatory response;
 *  - piecewiseLinear: Maass's triangular approximation (Fig. 2b);
 *  - step: the non-leaky integrate-and-fire synapse used by most TNNs
 *    surveyed in Sec. II.C (potential jumps by w and stays);
 *  - arbitrary integer sample vectors.
 */

#ifndef ST_NEURON_RESPONSE_HPP
#define ST_NEURON_RESPONSE_HPP

#include <cstdint>
#include <vector>

#include "core/time.hpp"

namespace st {

/**
 * A discretized response function.
 *
 * Stored as amplitude samples A(0), A(1), ..., A(t_max); for t > t_max
 * the amplitude stays at the final sample (the paper's fixed value c).
 * The implicit pre-spike amplitude A(-1) is 0, so A(0) != 0 means steps
 * at t = 0.
 */
class ResponseFunction
{
  public:
    /** Amplitude unit type (positive = excitatory contribution). */
    using Amp = int32_t;

    /** An empty response (always 0; contributes nothing). */
    ResponseFunction() = default;

    /** Construct from explicit samples A(0..t_max). */
    explicit ResponseFunction(std::vector<Amp> samples);

    /**
     * Biologically-based biexponential response (Fig. 2a), discretized.
     *
     * R(t) ~ peak * (exp(-t/tau_slow) - exp(-t/tau_fast)) / max, rounded
     * to integers, truncated once it decays to 0 for good.
     *
     * @param peak      Peak amplitude in units (the synaptic weight).
     * @param tau_slow  Membrane-leak decay constant (time units).
     * @param tau_fast  Synaptic-conductance decay constant; must be
     *                  strictly less than tau_slow.
     */
    static ResponseFunction biexponential(Amp peak, double tau_slow = 4.0,
                                          double tau_fast = 1.0);

    /**
     * Piecewise-linear approximation (Fig. 2b): ramp from 0 to @p peak
     * over @p rise steps, then back to 0 over @p fall steps.
     */
    static ResponseFunction piecewiseLinear(Amp peak, Time::rep rise,
                                            Time::rep fall);

    /**
     * Non-leaky step response: potential jumps by @p weight at t = @p at
     * and never decays (final value = weight).
     */
    static ResponseFunction step(Amp weight, Time::rep at = 0);

    /** Amplitude at time t (>= 0); flat at the final value past t_max. */
    Amp at(Time::rep t) const;

    /** Last time the amplitude changes (0 for constant/empty). */
    Time::rep tMax() const;

    /** The fixed value c the response settles at. */
    Amp finalValue() const;

    /** Largest amplitude reached (>= 0; 0 for empty). */
    Amp peak() const;

    /** Smallest amplitude reached (<= 0; 0 for empty). */
    Amp trough() const;

    /** True iff there are no steps at all. */
    bool isZero() const;

    /** One jump of the response: the amplitude moves by @c delta at
     *  @c offset ticks after the spike. */
    struct Step
    {
        Time::rep offset;
        Amp delta;

        bool operator==(const Step &) const = default;
    };

    /**
     * The response as its jumps, in ascending offset, one per offset at
     * which the amplitude changes: A(t) is the sum of the deltas with
     * offset <= t. upSteps() and downSteps() split these into units.
     */
    std::vector<Step> steps() const;

    /**
     * Times of unit up-steps, in nondecreasing order with multiplicity:
     * a +2 jump at t contributes t twice. These are the inc constants of
     * the Fig. 11 fanout network's "u" taps.
     */
    std::vector<Time::rep> upSteps() const;

    /** Times of unit down-steps (the "d" taps), with multiplicity. */
    std::vector<Time::rep> downSteps() const;

    /** Polarity-flipped copy (models an inhibitory synapse). */
    ResponseFunction negated() const;

    /** Sum of this and another response (for composing compound taps). */
    ResponseFunction plus(const ResponseFunction &other) const;

    /** Raw samples (A(0..t_max)). */
    const std::vector<Amp> &samples() const { return samples_; }

    bool operator==(const ResponseFunction &other) const = default;

  private:
    /** Drop trailing samples equal to their predecessor (canonical). */
    void trim();

    std::vector<Amp> samples_;
};

} // namespace st

#endif // ST_NEURON_RESPONSE_HPP
