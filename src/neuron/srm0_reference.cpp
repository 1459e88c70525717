#include "neuron/srm0_reference.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/algebra.hpp"

namespace st {

namespace {

/** The largest finite time: one below the inf pattern. */
constexpr Time kLastFinite = Time(std::numeric_limits<Time::rep>::max() - 1);

} // namespace

Srm0Neuron::Srm0Neuron(std::vector<ResponseFunction> synapses,
                       ResponseFunction::Amp threshold)
    : synapses_(std::move(synapses)), threshold_(threshold)
{
    if (synapses_.empty())
        throw std::invalid_argument("Srm0Neuron: needs >= 1 synapse");
    if (threshold < 1)
        throw std::invalid_argument("Srm0Neuron: threshold must be >= 1");
}

ResponseFunction::Amp
Srm0Neuron::potentialAt(std::span<const Time> inputs, Time::rep t) const
{
    if (inputs.size() != synapses_.size())
        throw std::invalid_argument("Srm0Neuron: arity mismatch");
    ResponseFunction::Amp sum = 0;
    for (size_t i = 0; i < inputs.size(); ++i) {
        Time x = inputs[i];
        if (x.isFinite() && x.value() <= t)
            sum += synapses_[i].at(t - x.value());
    }
    return sum;
}

Time::rep
Srm0Neuron::settleTime(std::span<const Time> inputs) const
{
    // Saturating sums, clamped to the largest finite time: a spike
    // within tMax of the top must neither wrap settle below the first
    // spike nor push the scan's bound to the inf pattern, where the
    // t <= settle loop could never end.
    Time settle = 0_t;
    for (size_t i = 0; i < inputs.size(); ++i) {
        if (inputs[i].isFinite())
            settle = std::max(settle, inputs[i] + synapses_[i].tMax());
    }
    return std::min(settle, kLastFinite).value();
}

Time
Srm0Neuron::fire(std::span<const Time> inputs) const
{
    Time first = minOf(inputs);
    if (first.isInf())
        return INF; // quiescent neuron: no input spikes, no output
    Time::rep settle = settleTime(inputs);
    // Past settle the potential is constant, so scanning up to settle
    // decides the outcome (covers non-leaky responses too).
    for (Time::rep t = first.value(); t <= settle; ++t) {
        if (potentialAt(inputs, t) >= threshold_)
            return Time(t);
    }
    return INF;
}

std::vector<ResponseFunction::Amp>
Srm0Neuron::trajectory(std::span<const Time> inputs) const
{
    std::vector<ResponseFunction::Amp> out;
    Time first = minOf(inputs);
    if (first.isInf())
        return out;
    Time::rep settle = settleTime(inputs);
    for (Time::rep t = first.value(); t <= settle; ++t)
        out.push_back(potentialAt(inputs, t));
    return out;
}

} // namespace st
