#include "serve/latency.hpp"

#include <chrono>
#include <ostream>

namespace st::serve {

namespace {

constexpr std::array<const char *, kStageCount> kStageNames = {
    "queue", "batch", "model", "egress", "total"};

/** The registry histogram of each stage, recorded and read here only. */
constexpr std::array<const char *, kStageCount> kStageMetrics = {
    "serve.latency.queue_us", "serve.latency.batch_us",
    "serve.latency.model_us", "serve.latency.egress_us",
    "serve.latency.total_us"};

/** b - a, clamped at 0 for defensive symmetry. */
uint64_t
sub(uint64_t b, uint64_t a)
{
    return b > a ? b - a : 0;
}

} // namespace

uint64_t
steadyNowUs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

const char *
stageName(size_t stage)
{
    return stage < kStageCount ? kStageNames[stage] : "?";
}

StageDeltas
stageDeltas(const VolleyStamps &s)
{
    return {sub(s.admitUs, s.ingressUs),
            sub(s.modelEnterUs, s.admitUs),
            sub(s.modelExitUs, s.modelEnterUs),
            sub(s.egressUs, s.modelExitUs),
            sub(s.egressUs, s.ingressUs)};
}

void
recordStages(const StageDeltas &d)
{
    // One handle per stage, resolved once (ST_OBS_HIST's per-site
    // static would land every stage in the first name).
    static const std::array<obs::Histogram *, kStageCount> hists = [] {
        std::array<obs::Histogram *, kStageCount> h{};
        for (size_t i = 0; i < kStageCount; ++i)
            h[i] = &obs::MetricsRegistry::instance().histogram(
                kStageMetrics[i]);
        return h;
    }();
    for (size_t i = 0; i < kStageCount; ++i)
        hists[i]->record(d[i]);
}

LatencySnapshot
LatencySnapshot::fromMetrics(const obs::MetricsSnapshot &metrics)
{
    LatencySnapshot snap;
    for (const obs::MetricsSnapshot::Hist &h : metrics.histograms)
        for (size_t i = 0; i < kStageCount; ++i)
            if (h.name == kStageMetrics[i])
                snap.stages[i] = h;
    return snap;
}

void
LatencySnapshot::writeJson(std::ostream &out) const
{
    out << "{";
    for (size_t i = 0; i < kStageCount; ++i) {
        const obs::MetricsSnapshot::Hist &h = stages[i];
        out << (i ? "," : "") << "\"" << stageName(i)
            << "\":{\"count\":" << h.count;
        for (const auto &[key, q] : obs::kQuantiles)
            out << ",\"" << key << "\":" << h.percentile(q);
        out << "}";
    }
    out << "}";
}

} // namespace st::serve
