#include "tnn/layer.hpp"

#include <algorithm>
#include <stdexcept>

#include "fault/fault.hpp"
#include "neuron/wta.hpp"
#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace st {

namespace {

std::vector<ResponseFunction>
buildFamily(const ColumnParams &p)
{
    std::vector<ResponseFunction> family;
    family.reserve(p.maxWeight + 1);
    family.emplace_back();
    for (size_t w = 1; w <= p.maxWeight; ++w) {
        auto amp = static_cast<ResponseFunction::Amp>(w);
        switch (p.shape) {
          case ResponseShape::Step:
            family.push_back(ResponseFunction::step(amp));
            break;
          case ResponseShape::Biexponential:
            family.push_back(ResponseFunction::biexponential(
                amp, p.tauSlow, p.tauFast));
            break;
          case ResponseShape::PiecewiseLinear:
            family.push_back(
                ResponseFunction::piecewiseLinear(amp, p.rise, p.fall));
            break;
        }
    }
    return family;
}

/** A fired synapse with steps still to come: its spike time, the time
 *  of its next step, and its remaining steps [step, end). */
struct Cursor
{
    Time::rep spike;
    Time::rep next;
    size_t step;
    size_t end;
};

/** Heap order: the cursor with the earliest next event on top. */
bool
later(const Cursor &a, const Cursor &b)
{
    return a.next > b.next;
}

} // namespace

Column::Column(const ColumnParams &params)
    : params_(params), family_(buildFamily(params))
{
    if (params_.numInputs == 0 || params_.numNeurons == 0)
        throw std::invalid_argument("Column: needs inputs and neurons");
    if (params_.threshold < 1)
        throw std::invalid_argument("Column: threshold must be >= 1");

    winCount_.assign(params_.numNeurons, 0);
    Rng rng(params_.seed);
    weights_.resize(params_.numNeurons);
    for (auto &w : weights_) {
        w.resize(params_.numInputs);
        for (double &x : w) {
            x = params_.initWeight +
                params_.initJitter * (2.0 * rng.uniform() - 1.0);
            x = std::clamp(x, 0.0, 1.0);
        }
    }
    buildTables();
}

Column::Column(const ColumnParams &params,
               std::vector<std::vector<double>> weights)
    : params_(params), family_(buildFamily(params))
{
    if (params_.numInputs == 0 || params_.numNeurons == 0)
        throw std::invalid_argument("Column: needs inputs and neurons");
    if (params_.threshold < 1)
        throw std::invalid_argument("Column: threshold must be >= 1");
    if (weights.size() != params_.numNeurons)
        throw std::invalid_argument("Column: weight row count mismatch");
    for (const auto &w : weights)
        if (w.size() != params_.numInputs)
            throw std::invalid_argument("Column: weight arity mismatch");

    winCount_.assign(params_.numNeurons, 0);
    weights_ = std::move(weights);
    buildTables();
}

void
Column::buildTables()
{
    // The potential at t is the sum of the deltas of every step with
    // spike + offset <= t.
    levelSteps_.clear();
    steps_.clear();
    for (const ResponseFunction &r : family_) {
        LevelSteps level{0, steps_.size(), 0};
        for (const ResponseFunction::Step &s : r.steps()) {
            if (s.offset == 0)
                level.atSpike = s.delta;
            else
                steps_.push_back(s);
        }
        level.end = steps_.size();
        levelSteps_.push_back(level);
    }

    levels_.resize(params_.numNeurons * params_.numInputs);
    for (size_t j = 0; j < params_.numNeurons; ++j)
        rebuildRow(j);
}

void
Column::rebuildRow(size_t neuron)
{
    // Levels fit 32 bits: family_ already holds maxWeight + 1
    // responses.
    const std::vector<double> &w = weights_[neuron];
    uint32_t *row = levels_.data() + neuron * params_.numInputs;
    for (size_t k = 0; k < params_.numInputs; ++k)
        row[k] = static_cast<uint32_t>(
            quantizeWeight(w[k], params_.maxWeight));
}

Srm0Neuron
Column::neuronModel(size_t neuron) const
{
    // Quantized from the shadow weights, not read from the level
    // table, so the oracle stays independent of the sweep's state.
    const std::vector<double> &w = weights(neuron);
    std::vector<ResponseFunction> synapses;
    synapses.reserve(w.size());
    for (double x : w)
        synapses.push_back(family_[quantizeWeight(x, params_.maxWeight)]);
    return Srm0Neuron(std::move(synapses), params_.threshold);
}

ResponseFunction::Amp
Column::potentialAt(size_t neuron, std::span<const Time> inputs,
                    Time::rep t) const
{
    if (neuron >= params_.numNeurons)
        throw std::out_of_range("Column: no such neuron");
    if (inputs.size() != params_.numInputs)
        throw std::invalid_argument("Column: arity mismatch");
    const uint32_t *row = levels_.data() + neuron * params_.numInputs;
    ResponseFunction::Amp sum = 0;
    for (size_t k = 0; k < inputs.size(); ++k) {
        const Time x = inputs[k];
        if (x.isFinite() && x.value() <= t)
            sum += family_[row[k]].at(t - x.value());
    }
    return sum;
}

Time
Column::sweep(size_t neuron, std::span<const Spike> spikes) const
{
    const uint32_t *row = levels_.data() + neuron * params_.numInputs;
    const ResponseFunction::Amp theta = params_.threshold;
    ResponseFunction::Amp sum = 0;
    // Each round takes the earliest time t among the next spike and
    // the pending steps. A spike at t applies its jump at the spike
    // (all of a Step synapse's response) and queues its later steps;
    // the pending steps at t come off the heap. A step past the
    // largest finite time saturates to inf and never lands, exactly
    // as the reference scan never reaches it.
    static thread_local std::vector<Cursor> heap;
    heap.clear();
    size_t i = 0; // spikes[i] is the first spike not yet reached
    while (i < spikes.size() || !heap.empty()) {
        Time::rep t = heap.empty() ? spikes[i].time : heap.front().next;
        if (i < spikes.size())
            t = std::min(t, spikes[i].time);
        for (; i < spikes.size() && spikes[i].time == t; ++i) {
            const LevelSteps &level = levelSteps_[row[spikes[i].input]];
            sum += level.atSpike;
            if (level.begin == level.end)
                continue;
            const Time due = Time(t) + steps_[level.begin].offset;
            if (due.isFinite()) {
                heap.push_back({t, due.value(), level.begin, level.end});
                std::push_heap(heap.begin(), heap.end(), later);
            }
        }
        while (!heap.empty() && heap.front().next == t) {
            std::pop_heap(heap.begin(), heap.end(), later);
            Cursor &c = heap.back();
            sum += steps_[c.step].delta;
            Time due = INF;
            if (++c.step != c.end)
                due = Time(c.spike) + steps_[c.step].offset;
            if (due.isInf()) {
                heap.pop_back();
            } else {
                c.next = due.value();
                std::push_heap(heap.begin(), heap.end(), later);
            }
        }
        if (sum >= theta)
            return Time(t);
    }
    return INF;
}

std::vector<Time>
Column::rawFireTimes(std::span<const Time> inputs) const
{
    std::vector<Time> out;
    rawFireTimesInto(inputs, out);
    return out;
}

void
Column::rawFireTimesInto(std::span<const Time> inputs,
                         std::vector<Time> &out) const
{
    if (inputs.size() != params_.numInputs)
        throw std::invalid_argument("Column: arity mismatch");
    out.resize(params_.numNeurons);
    static thread_local std::vector<Spike> spikes;
    // Synapse-path fault hook: with synDelayJitter configured, neuron
    // j sees input k delayed by a fixed extra amount drawn per
    // (column seed, j, k) — a mis-sized dendritic delay line, constant
    // for the injector's lifetime. The draws are pure hashes, so the
    // perturbation is identical at any thread count and input shift.
    const fault::FaultInjector *inj = fault::activeInjector();
    if (inj != nullptr && inj->spec().synDelayJitter == 0)
        inj = nullptr;
    if (inj == nullptr) {
        spikes.clear();
        for (size_t k = 0; k < inputs.size(); ++k)
            if (inputs[k].isFinite())
                spikes.push_back({inputs[k].value(), k});
        std::sort(spikes.begin(), spikes.end());
        for (size_t j = 0; j < params_.numNeurons; ++j)
            out[j] = sweep(j, spikes);
        return;
    }
    for (size_t j = 0; j < params_.numNeurons; ++j) {
        spikes.clear();
        for (size_t k = 0; k < inputs.size(); ++k) {
            const Time x = inputs[k] + inj->synapseDelay(params_.seed, j, k);
            if (x.isFinite())
                spikes.push_back({x.value(), k});
        }
        std::sort(spikes.begin(), spikes.end());
        out[j] = sweep(j, spikes);
    }
}

Volley
Column::process(std::span<const Time> inputs) const
{
    Volley out;
    processInto(inputs, out);
    return out;
}

void
Column::processInto(std::span<const Time> inputs, Volley &out) const
{
    rawFireTimesInto(inputs, out);
    if (params_.wtaTau > 0)
        applyWtaInPlace(out, params_.wtaTau);
    if (params_.wtaK > 0)
        applyKWtaInPlace(out, params_.wtaK);
    // Post-inhibition spike economics — the quantity the paper's
    // Fig. 16 energy argument counts. One O(neurons) scan per volley.
    ST_OBS_ONLY({
        uint64_t spikes = 0;
        for (const Time &t : out)
            spikes += t.isFinite();
        ST_OBS_ADD("tnn.spikes", spikes);
        ST_OBS_HIST("tnn.spikes_per_volley", spikes);
    })
}

std::optional<TrainEvent>
Column::selectWinner(std::span<const Time> inputs,
                     size_t least_wins) const
{
    std::vector<Time> fired = rawFireTimes(inputs);

    // Winner: earliest spike; simultaneous spikes go to the neuron
    // with the highest potential at the firing time (the tie rule of
    // Kheradpisheh et al. — the best-matching neuron, not the lowest
    // index, claims the pattern).
    std::optional<TrainEvent> event;
    Time best_spike = INF;
    ResponseFunction::Amp best_potential = 0;
    for (size_t j = 0; j < fired.size(); ++j) {
        // Fatigue: neurons that have won far more often than the
        // laggard sit this round out, so the others get a chance to
        // specialize.
        if (params_.fatigue > 0 &&
            winCount_[j] > least_wins + params_.fatigue) {
            continue;
        }
        if (fired[j].isInf() || fired[j] > best_spike)
            continue;
        ResponseFunction::Amp potential =
            potentialAt(j, inputs, fired[j].value());
        if (fired[j] < best_spike || potential > best_potential) {
            best_spike = fired[j];
            event = TrainEvent{0, j, fired[j]};
            best_potential = potential;
        }
    }
    return event;
}

TrainResult
Column::trainStep(std::span<const Time> inputs, const StdpRule &rule)
{
    size_t least_wins = winCount_.empty() ? 0
                                          : *std::min_element(
                                                winCount_.begin(),
                                                winCount_.end());
    std::optional<TrainEvent> event = selectWinner(inputs, least_wins);
    TrainResult result;
    if (event) {
        result.winner = event->neuron;
        result.spikeTime = event->spike;
        ++winCount_[event->neuron];
        rule.update(weights_[event->neuron], inputs, event->spike);
        rebuildRow(event->neuron);
        ST_OBS_ADD("tnn.weight_updates", 1);
        ST_OBS_HIST("tnn.wta.winner", event->neuron);
    }
    return result;
}

size_t
Column::leastWins() const
{
    return winCount_.empty() ? 0
                             : *std::min_element(winCount_.begin(),
                                                 winCount_.end());
}

std::optional<TrainEvent>
Column::scanWinner(std::span<const Time> inputs, size_t least_wins) const
{
    return selectWinner(inputs, least_wins);
}

size_t
Column::applyTrainEvents(std::span<const std::optional<TrainEvent>> slots,
                         std::span<const Volley> inputs,
                         const StdpRule &rule)
{
    std::vector<TrainEvent> merged = mergeTrainEvents(slots);
    for (const TrainEvent &event : merged) {
        ++winCount_[event.neuron];
        rule.update(weights_[event.neuron], inputs[event.sample],
                    event.spike);
        rebuildRow(event.neuron);
        ST_OBS_HIST("tnn.wta.winner", event.neuron);
    }
    ST_OBS_ADD("tnn.weight_updates", merged.size());
    return merged.size();
}

size_t
Column::trainBatch(std::span<const Volley> inputs, const StdpRule &rule,
                   size_t nthreads)
{
    ST_TRACE_SPAN("tnn.train_batch");
    ST_OBS_ADD("tnn.train_samples", inputs.size());
    // Phase 1 (parallel, read-only): pick every sample's winner
    // against the batch-start weights and fatigue counters.
    const size_t least_wins = leastWins();
    std::vector<std::optional<TrainEvent>> slots(inputs.size());
    size_t lanes = nthreads == 0 ? ThreadPool::defaultThreads()
                                 : nthreads;
    ThreadPool::shared().parallelFor(
        0, inputs.size(), 1,
        [&](size_t s) {
            slots[s] = selectWinner(inputs[s], least_wins);
            if (slots[s])
                slots[s]->sample = s;
        },
        lanes);

    // Phase 2 (serial, deterministic): merge the per-sample events in
    // sample order — the order, and hence the resulting weights, are
    // independent of the thread count.
    return applyTrainEvents(slots, inputs, rule);
}

size_t
Column::winCount(size_t neuron) const
{
    return winCount_.at(neuron);
}

void
Column::resetFatigue()
{
    winCount_.assign(params_.numNeurons, 0);
}

const std::vector<double> &
Column::weights(size_t neuron) const
{
    return weights_.at(neuron);
}

void
Column::setWeights(size_t neuron, std::vector<double> w)
{
    if (w.size() != params_.numInputs)
        throw std::invalid_argument("Column: weight arity mismatch");
    weights_.at(neuron) = std::move(w);
    rebuildRow(neuron);
}

std::vector<size_t>
Column::discreteWeights(size_t neuron) const
{
    return quantizeWeights(weights(neuron), params_.maxWeight);
}

} // namespace st
