/**
 * @file
 * Liquid State Machines — the recurrent extension the paper defers.
 *
 * Sec. II.C: "Liquid State Machines [33][44] are based on the same
 * principles as TNNs: temporal encoding and spiking neuron models.
 * However, they contain feedback established via pseudo-random
 * interconnection patterns. Although they are not feedforward TNNs, the
 * theory in this paper may potentially be extended to include them."
 *
 * This module is that extension, clearly outside the feedforward
 * single-wave model: a discrete-time recurrent reservoir of leaky
 * integrate-and-fire neurons with random excitatory/inhibitory
 * connectivity. Input volleys are injected as spikes at their encoded
 * times; the reservoir's fading activity holds a temporal context, and
 * a simple trained linear readout classifies from the exponentially
 * filtered spike traces (Maass's separation/readout split).
 *
 * Everything stays deterministic (seeded) and laptop-scale, matching
 * the rest of the library.
 */

#ifndef ST_TNN_LSM_HPP
#define ST_TNN_LSM_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "tnn/volley.hpp"
#include "util/rng.hpp"

namespace st {

/** Reservoir configuration. */
struct ReservoirParams
{
    size_t numInputs = 0;    //!< input channels
    size_t numNeurons = 64;  //!< reservoir size
    double connectProb = 0.15;  //!< recurrent connection probability
    double inputProb = 0.3;     //!< input->neuron connection probability
    double excitatoryFraction = 0.7; //!< rest are inhibitory
    double weightScale = 0.35;  //!< recurrent weight magnitude (mean)
    double inputScale = 1.2;    //!< input weight magnitude (mean)
    double leak = 0.8;          //!< per-step membrane retention factor
    double threshold = 1.0;     //!< firing threshold
    uint32_t refractory = 1;    //!< steps silent after a spike
    double traceLeak = 0.7;     //!< readout trace retention factor
    uint64_t seed = 0x11c;
};

/**
 * A discrete-time recurrent spiking reservoir.
 */
class Reservoir
{
  public:
    explicit Reservoir(const ReservoirParams &params);

    const ReservoirParams &params() const { return params_; }

    /** Reset membrane state, refractory timers and traces. */
    void reset();

    /**
     * Advance one time step.
     *
     * @param input_channels  Channels spiking at this step.
     * @return Indices of reservoir neurons that fired.
     */
    std::vector<uint32_t>
    step(std::span<const uint32_t> input_channels);

    /**
     * Inject a volley (channel c spikes at its encoded time) and run
     * for @p total_steps steps (covering the volley and the requested
     * silent tail). Returns the number of reservoir spikes observed.
     */
    size_t runVolley(std::span<const Time> volley, size_t total_steps);

    /** Exponentially filtered per-neuron spike traces (the state). */
    const std::vector<double> &traces() const { return traces_; }

    /** Membrane potentials (for inspection). */
    const std::vector<double> &potentials() const { return potential_; }

    /** Total spikes since the last reset. */
    size_t spikeCount() const { return spikeCount_; }

    /** Recurrent connection count (for inspection). */
    size_t numConnections() const { return edgeTo_.size(); }

  private:
    /** step() without the copy: leaves this step's spikes in fired_. */
    void advance(std::span<const uint32_t> input_channels);

    ReservoirParams params_;
    /**
     * Recurrent synapses, source-indexed (CSR): neuron j's out-edges
     * are [edgeStart_[j], edgeStart_[j + 1]), targets ascending.
     */
    std::vector<size_t> edgeStart_;
    std::vector<uint32_t> edgeTo_;
    std::vector<double> edgeW_;            //!< weights, parallel
    std::vector<std::vector<uint32_t>> inputFan_; //!< targets / channel
    std::vector<std::vector<double>> inputW_; //!< weights, parallel
    std::vector<double> potential_;
    std::vector<uint32_t> refractory_;
    std::vector<uint32_t> fired_; //!< last step's spikes, ascending
    std::vector<double> traces_;
    size_t spikeCount_ = 0;
};

/**
 * A one-vs-rest perceptron readout over reservoir traces — the
 * classic "simple readout on a complex liquid" arrangement.
 */
class LinearReadout
{
  public:
    /** @param num_features trace vector length; @param num_classes K. */
    LinearReadout(size_t num_features, size_t num_classes,
                  uint64_t seed = 0x11d);

    /** One perceptron update per class; returns true if any erred. */
    bool train(std::span<const double> features, size_t label,
               double lr = 0.05);

    /** Predicted class (argmax of the class scores). */
    size_t classify(std::span<const double> features) const;

  private:
    double score(std::span<const double> features, size_t c) const;

    size_t numFeatures_, numClasses_;
    std::vector<double> w_; //!< [class][feature+bias], row-major
};

} // namespace st

#endif // ST_TNN_LSM_HPP
