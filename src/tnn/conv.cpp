#include "tnn/conv.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/algebra.hpp"

namespace st {

ColumnParams
Conv1dLayer::columnParamsFor(const Conv1dParams &p)
{
    ColumnParams cp;
    cp.numInputs = p.kernelSize;
    cp.numNeurons = p.numFeatures;
    cp.threshold = p.threshold;
    cp.maxWeight = p.maxWeight;
    cp.shape = p.shape;
    cp.wtaTau = 0; // inhibition is handled across positions, not here
    cp.wtaK = 0;
    cp.initWeight = p.initWeight;
    cp.initJitter = p.initJitter;
    cp.seed = p.seed;
    return cp;
}

Conv1dLayer::Conv1dLayer(const Conv1dParams &params)
    : params_(params), numPositions_(0),
      column_(columnParamsFor(params))
{
    if (params_.kernelSize == 0 || params_.kernelSize > params_.inputWidth)
        throw std::invalid_argument("Conv1dLayer: bad kernel size");
    if (params_.stride == 0)
        throw std::invalid_argument("Conv1dLayer: stride must be >= 1");
    numPositions_ =
        (params_.inputWidth - params_.kernelSize) / params_.stride + 1;
    winCount_.assign(params_.numFeatures, 0);
}

Volley
Conv1dLayer::window(std::span<const Time> input, size_t p) const
{
    if (input.size() != params_.inputWidth)
        throw std::invalid_argument("Conv1dLayer: arity mismatch");
    if (p >= numPositions_)
        throw std::out_of_range("Conv1dLayer: bad position");
    size_t base = p * params_.stride;
    return Volley(input.begin() + base,
                  input.begin() + base + params_.kernelSize);
}

Volley
Conv1dLayer::featureMap(std::span<const Time> input) const
{
    Volley map(params_.numFeatures * numPositions_, INF);
    for (size_t p = 0; p < numPositions_; ++p) {
        Volley w = window(input, p);
        std::vector<Time> fired = column_.rawFireTimes(w);
        for (size_t f = 0; f < params_.numFeatures; ++f)
            map[f * numPositions_ + p] = fired[f];
    }
    return map;
}

Volley
Conv1dLayer::pooled(std::span<const Time> input) const
{
    Volley map = featureMap(input);
    Volley out(params_.numFeatures, INF);
    for (size_t f = 0; f < params_.numFeatures; ++f) {
        for (size_t p = 0; p < numPositions_; ++p) {
            out[f] = tmin(out[f], map[f * numPositions_ + p]);
        }
    }
    return out;
}

ConvTrainResult
Conv1dLayer::trainStep(std::span<const Time> input, const StdpRule &rule)
{
    Volley map = featureMap(input);

    size_t least_wins =
        *std::min_element(winCount_.begin(), winCount_.end());

    // Winner: earliest spike; ties go to the (feature, position) with
    // the highest potential at the firing time. That favours the
    // window fully covering a motif over partial-overlap windows that
    // cross threshold at the same instant — without it, features tune
    // to misaligned fragments (Kheradpisheh et al.'s tie rule).
    ConvTrainResult result;
    ResponseFunction::Amp best_potential = 0;
    for (size_t f = 0; f < params_.numFeatures; ++f) {
        if (params_.fatigue > 0 &&
            winCount_[f] > least_wins + params_.fatigue) {
            continue;
        }
        for (size_t p = 0; p < numPositions_; ++p) {
            Time t = map[f * numPositions_ + p];
            if (t.isInf() || t > result.spikeTime)
                continue;
            Volley local = window(input, p);
            ResponseFunction::Amp potential =
                column_.potentialAt(f, local, t.value());
            if (t < result.spikeTime || potential > best_potential) {
                result.spikeTime = t;
                result.feature = f;
                result.position = p;
                best_potential = potential;
            }
        }
    }
    if (result.feature) {
        ++winCount_[*result.feature];
        std::vector<double> w = column_.weights(*result.feature);
        Volley local = window(input, result.position);
        rule.update(w, local, result.spikeTime);
        column_.setWeights(*result.feature, std::move(w));
    }
    return result;
}

const std::vector<double> &
Conv1dLayer::weights(size_t feature) const
{
    return column_.weights(feature);
}

void
Conv1dLayer::setWeights(size_t feature, std::vector<double> w)
{
    column_.setWeights(feature, std::move(w));
}

size_t
Conv1dLayer::winCount(size_t feature) const
{
    return winCount_.at(feature);
}

} // namespace st
