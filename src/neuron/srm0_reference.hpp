/**
 * @file
 * Reference (numerical) SRM0 spiking neuron (paper Sec. II.A, Fig. 1).
 *
 * This is the neuroscience-style model: each input spike x_i launches a
 * weighted response function; responses are summed into the body
 * potential; the neuron emits its (single) output spike the first time the
 * potential reaches the threshold theta.
 *
 * The reference model is deliberately independent of the s-t network
 * machinery: it sums integer amplitude samples on a discrete timeline.
 * The Fig. 12 construction (srm0_network.hpp) is validated against it —
 * they must agree on every input volley, which is this reproduction's
 * central cross-domain check — and so is the event sweep a TNN Column
 * fires its neurons with (tnn/layer.hpp).
 */

#ifndef ST_NEURON_SRM0_REFERENCE_HPP
#define ST_NEURON_SRM0_REFERENCE_HPP

#include <span>
#include <vector>

#include "core/time.hpp"
#include "neuron/response.hpp"

namespace st {

/**
 * A numerical SRM0 neuron.
 *
 * Synapse i is described by an already-weighted response function (the
 * synaptic weight scales the amplitude, per Fig. 1); inhibitory synapses
 * simply use negative responses.
 */
class Srm0Neuron
{
  public:
    /**
     * @param synapses   One (weighted) response function per input.
     * @param threshold  Firing threshold theta in amplitude units (>= 1).
     */
    Srm0Neuron(std::vector<ResponseFunction> synapses,
               ResponseFunction::Amp threshold);

    /** Number of inputs. */
    size_t arity() const { return synapses_.size(); }

    /** The threshold theta. */
    ResponseFunction::Amp threshold() const { return threshold_; }

    /** Per-synapse response functions. */
    const std::vector<ResponseFunction> &synapses() const
    {
        return synapses_;
    }

    /**
     * Body potential at absolute time t for the given input volley:
     * sum over fired synapses of R_i(t - x_i).
     */
    ResponseFunction::Amp potentialAt(std::span<const Time> inputs,
                                      Time::rep t) const;

    /**
     * Output spike time: the first t at which the potential reaches
     * theta, or inf if the threshold is never crossed.
     */
    Time fire(std::span<const Time> inputs) const;

    /**
     * Full potential trajectory from the first input spike to the time
     * everything has settled (for plots and debugging). Empty if no
     * input spikes.
     */
    std::vector<ResponseFunction::Amp>
    trajectory(std::span<const Time> inputs) const;

  private:
    /** Latest time the potential can still change, given the inputs. */
    Time::rep settleTime(std::span<const Time> inputs) const;

    std::vector<ResponseFunction> synapses_;
    ResponseFunction::Amp threshold_;
};

} // namespace st

#endif // ST_NEURON_SRM0_REFERENCE_HPP
