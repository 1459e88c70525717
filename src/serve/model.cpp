#include "serve/model.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "obs/obs.hpp"

namespace st::serve {

std::string
wireVolley(std::span<const Time> v)
{
    // Runs once per volley on the batcher thread: format in place, no
    // stream. A time is at most 20 digits, plus its separator.
    std::string out(v.size() * 21, '\0');
    char *p = out.data();
    for (size_t i = 0; i < v.size(); ++i) {
        if (i)
            *p++ = ' ';
        if (v[i].isInf()) {
            p = std::copy_n("inf", 3, p);
        } else {
            p = std::to_chars(p, out.data() + out.size(), v[i].value()).ptr;
        }
    }
    out.resize(static_cast<size_t>(p - out.data()));
    return out;
}

TnnServeModel::TnnServeModel(TnnNetwork net) : net_(std::move(net))
{
    if (net_.numLayers() == 0)
        throw std::invalid_argument("TnnServeModel: empty network");
    numInputs_ = net_.layer(0).params().numInputs;
}

std::vector<std::string>
TnnServeModel::processBatch(std::span<const BatchItem> items,
                            size_t nthreads)
{
    std::vector<Volley> inputs;
    inputs.reserve(items.size());
    for (const BatchItem &item : items)
        inputs.push_back(item.volley);
    const std::vector<Volley> outputs =
        net_.processBatch(inputs, nthreads);
    std::vector<std::string> payloads;
    payloads.reserve(outputs.size());
    for (const Volley &out : outputs)
        payloads.push_back(wireVolley(out));
    return payloads;
}

LsmAnomalyModel::LsmAnomalyModel(const ReservoirParams &params,
                                 size_t steps_per_volley,
                                 double ema_alpha)
    : params_(params), stepsPerVolley_(steps_per_volley),
      emaAlpha_(ema_alpha)
{
    if (params_.numInputs == 0)
        throw std::invalid_argument("LsmAnomalyModel: no inputs");
    if (stepsPerVolley_ == 0)
        throw std::invalid_argument("LsmAnomalyModel: zero steps");
}

std::vector<std::string>
LsmAnomalyModel::processBatch(std::span<const BatchItem> items,
                              size_t nthreads)
{
    // Reservoirs are stateful per session, so the batch is processed
    // serially in item order (per-session seq order is the server's
    // guarantee); parallelism here would trade determinism for
    // nothing, as reservoirs are tiny next to the TNN path.
    (void)nthreads;
    std::vector<std::string> payloads;
    payloads.reserve(items.size());
    for (const BatchItem &item : items) {
        SessionState &st = state_[item.session];
        if (!st.reservoir)
            st.reservoir = std::make_unique<Reservoir>(params_);
        const size_t before = st.reservoir->spikeCount();
        st.reservoir->runVolley(item.volley, stepsPerVolley_);
        const double spikes = static_cast<double>(
            st.reservoir->spikeCount() - before);
        double score = 0.0;
        if (st.emaSpikes < 0.0) {
            st.emaSpikes = spikes; // first volley: baseline, score 0
        } else {
            score = std::fabs(spikes - st.emaSpikes) /
                    (st.emaSpikes + 1.0);
            st.emaSpikes = emaAlpha_ * spikes +
                           (1.0 - emaAlpha_) * st.emaSpikes;
        }
        ST_OBS_HIST("serve.lsm.volley_spikes",
                    static_cast<uint64_t>(spikes));
        std::ostringstream os;
        os << "score " << static_cast<uint64_t>(score * 1000.0)
           << " spikes " << static_cast<uint64_t>(spikes);
        payloads.push_back(os.str());
    }
    return payloads;
}

void
LsmAnomalyModel::endSession(uint64_t session)
{
    state_.erase(session);
}

} // namespace st::serve
