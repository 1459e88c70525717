/**
 * @file
 * Per-volley latency decomposition for the serving layer
 * (DESIGN.md Sec. 13).
 *
 * Every delivered volley is stamped on the steady clock (microsecond
 * resolution, same domain as steadyNowMs()) at five points of its
 * journey, defining four stage deltas plus the total:
 *
 *   ingress  — parse/frame complete, volley queued on the ingress ring
 *   admit    — the batcher popped it into a batch
 *   m-enter  — the model call containing it began
 *   m-exit   — that model call returned
 *   egress   — the result line was queued on the egress ring
 *
 *   queue  = admit  - ingress   (ingress ring + batcher pickup)
 *   batch  = enter  - admit     (batch assembly + chaos perturbation)
 *   model  = exit   - enter     (inference proper)
 *   egress = egress - exit      (demux + result formatting)
 *   total  = egress - ingress
 *
 * The batcher computes a delivered volley's deltas once and records
 * them once per store: lock-free into the registry's
 * serve.latency.<stage>_us histograms (recordStages), which are the
 * server-wide view and so process-wide; and into its session's
 * LatencySnapshot inside the Session::deliver() critical section that
 * counts the volley. healthJson() reports the obs::kQuantiles of
 * each. Only *delivered* volleys are recorded — drops are visible
 * through their own counters, not mixed into latency tails.
 *
 * The stamping and recording sites compile out under ST_OBS_ENABLED=0
 * (the kLatencyEnabled branches are constant-false); the snapshot
 * plumbing always compiles, so the health schema is stable across
 * both builds (counts are simply zero).
 */

#ifndef ST_SERVE_LATENCY_HPP
#define ST_SERVE_LATENCY_HPP

#include <array>
#include <cstdint>
#include <iosfwd>

#include "obs/metrics.hpp"

namespace st::serve {

/** Whether per-volley stamping is compiled in. */
inline constexpr bool kLatencyEnabled = ST_OBS_ENABLED != 0;

/** Microseconds on the steady clock (finer cousin of steadyNowMs). */
uint64_t steadyNowUs();

/** The five steady-clock stamps of one volley's journey. */
struct VolleyStamps
{
    uint64_t ingressUs = 0;
    uint64_t admitUs = 0;
    uint64_t modelEnterUs = 0;
    uint64_t modelExitUs = 0;
    uint64_t egressUs = 0;
};

/** Stage deltas derived from the stamps (see file comment). */
inline constexpr size_t kStageCount = 5;

/** Stage name for index 0..kStageCount-1. */
const char *stageName(size_t stage);

/** One volley's deltas, in stageName order. */
using StageDeltas = std::array<uint64_t, kStageCount>;

/**
 * The per-stage deltas of @p s, in stageName order. Saturating: a
 * stamp pair whose clock reads ran backwards (never expected on one
 * steady clock, but cheap to guard) yields 0.
 */
StageDeltas stageDeltas(const VolleyStamps &s);

/** Record @p d into the registry's serve.latency.<stage>_us. */
void recordStages(const StageDeltas &d);

/** One histogram per stage: a session's, or a copy of the registry's. */
struct LatencySnapshot
{
    std::array<obs::MetricsSnapshot::Hist, kStageCount> stages;

    /** The serve.latency.<stage>_us histograms of @p metrics. */
    static LatencySnapshot fromMetrics(const obs::MetricsSnapshot &metrics);

    /**
     * `{"queue": {"count": N, "p50": ..., "p90": ..., "p99": ...,
     * "p999": ...}, "batch": {...}, ...}` in stageName order.
     */
    void writeJson(std::ostream &out) const;
};

} // namespace st::serve

#endif // ST_SERVE_LATENCY_HPP
