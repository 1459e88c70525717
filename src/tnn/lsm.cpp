#include "tnn/lsm.hpp"

#include <algorithm>
#include <stdexcept>

namespace st {

Reservoir::Reservoir(const ReservoirParams &params)
    : params_(params)
{
    if (params_.numInputs == 0 || params_.numNeurons == 0)
        throw std::invalid_argument("Reservoir: needs inputs & neurons");
    if (params_.leak < 0.0 || params_.leak >= 1.0)
        throw std::invalid_argument("Reservoir: leak must be in [0,1)");

    Rng rng(params_.seed);
    const auto n = static_cast<uint32_t>(params_.numNeurons);

    // Inhibitory identities are fixed per neuron (Dale's law-ish).
    std::vector<bool> inhibitory(n);
    for (uint32_t j = 0; j < n; ++j)
        inhibitory[j] = !rng.chance(params_.excitatoryFraction);

    edgeStart_.reserve(n + 1);
    for (uint32_t from = 0; from < n; ++from) {
        edgeStart_.push_back(edgeTo_.size());
        for (uint32_t to = 0; to < n; ++to) {
            if (from == to || !rng.chance(params_.connectProb))
                continue;
            double w = params_.weightScale * (0.5 + rng.uniform());
            if (inhibitory[from])
                w = -w;
            edgeTo_.push_back(to);
            edgeW_.push_back(w);
        }
    }
    edgeStart_.push_back(edgeTo_.size());

    inputFan_.resize(params_.numInputs);
    inputW_.resize(params_.numInputs);
    for (size_t c = 0; c < params_.numInputs; ++c) {
        for (uint32_t j = 0; j < n; ++j) {
            if (rng.chance(params_.inputProb)) {
                inputFan_[c].push_back(j);
                inputW_[c].push_back(params_.inputScale *
                                     (0.5 + rng.uniform()));
            }
        }
    }

    reset();
}

void
Reservoir::reset()
{
    potential_.assign(params_.numNeurons, 0.0);
    refractory_.assign(params_.numNeurons, 0);
    fired_.clear();
    traces_.assign(params_.numNeurons, 0.0);
    spikeCount_ = 0;
}

std::vector<uint32_t>
Reservoir::step(std::span<const uint32_t> input_channels)
{
    advance(input_channels);
    return fired_;
}

void
Reservoir::advance(std::span<const uint32_t> input_channels)
{
    const size_t n = params_.numNeurons;

    // Leak, then integrate last step's recurrent spikes and this
    // step's input spikes. Only the fired neurons' out-edges carry a
    // spike; walking them source-ascending, targets ascending, adds
    // to each potential in the order a scan of every edge would, so
    // the sums are bit-identical to that scan's.
    for (size_t j = 0; j < n; ++j)
        potential_[j] *= params_.leak;
    for (uint32_t from : fired_) {
        for (size_t e = edgeStart_[from]; e < edgeStart_[from + 1]; ++e)
            potential_[edgeTo_[e]] += edgeW_[e];
    }
    for (uint32_t c : input_channels) {
        if (c >= params_.numInputs)
            throw std::out_of_range("Reservoir: bad input channel");
        for (size_t k = 0; k < inputFan_[c].size(); ++k)
            potential_[inputFan_[c][k]] += inputW_[c][k];
    }

    // Fire, reset, refract; update readout traces.
    fired_.clear();
    for (size_t j = 0; j < n; ++j) {
        traces_[j] *= params_.traceLeak;
        if (refractory_[j] > 0) {
            --refractory_[j];
            continue;
        }
        if (potential_[j] >= params_.threshold) {
            fired_.push_back(static_cast<uint32_t>(j));
            potential_[j] = 0.0;
            refractory_[j] = params_.refractory;
            traces_[j] += 1.0;
            ++spikeCount_;
        }
    }
}

size_t
Reservoir::runVolley(std::span<const Time> volley, size_t total_steps)
{
    if (volley.size() != params_.numInputs)
        throw std::invalid_argument("Reservoir: volley arity mismatch");
    size_t spikes = 0;
    std::vector<uint32_t> channels;
    for (size_t t = 0; t < total_steps; ++t) {
        channels.clear();
        for (size_t c = 0; c < volley.size(); ++c) {
            if (volley[c].isFinite() && volley[c].value() == t)
                channels.push_back(static_cast<uint32_t>(c));
        }
        advance(channels);
        spikes += fired_.size();
    }
    return spikes;
}

LinearReadout::LinearReadout(size_t num_features, size_t num_classes,
                             uint64_t seed)
    : numFeatures_(num_features), numClasses_(num_classes)
{
    if (num_features == 0 || num_classes == 0)
        throw std::invalid_argument("LinearReadout: empty dimensions");
    Rng rng(seed);
    w_.resize(num_classes * (num_features + 1));
    for (double &x : w_)
        x = 0.01 * (2.0 * rng.uniform() - 1.0);
}

double
LinearReadout::score(std::span<const double> features, size_t c) const
{
    const double *row = &w_[c * (numFeatures_ + 1)];
    double s = row[numFeatures_]; // bias
    for (size_t i = 0; i < numFeatures_; ++i)
        s += row[i] * features[i];
    return s;
}

bool
LinearReadout::train(std::span<const double> features, size_t label,
                     double lr)
{
    if (features.size() != numFeatures_)
        throw std::invalid_argument("LinearReadout: feature arity");
    if (label >= numClasses_)
        throw std::out_of_range("LinearReadout: bad label");
    bool erred = false;
    for (size_t c = 0; c < numClasses_; ++c) {
        double target = c == label ? 1.0 : -1.0;
        double out = score(features, c) >= 0.0 ? 1.0 : -1.0;
        if (out != target) {
            erred = true;
            double *row = &w_[c * (numFeatures_ + 1)];
            for (size_t i = 0; i < numFeatures_; ++i)
                row[i] += lr * target * features[i];
            row[numFeatures_] += lr * target;
        }
    }
    return erred;
}

size_t
LinearReadout::classify(std::span<const double> features) const
{
    size_t best = 0;
    double best_score = score(features, 0);
    for (size_t c = 1; c < numClasses_; ++c) {
        double s = score(features, c);
        if (s > best_score) {
            best_score = s;
            best = c;
        }
    }
    return best;
}

} // namespace st
