/**
 * @file
 * The ledger's workloads. Three drive the real stnet_serve daemon over
 * loopback TCP; `offline` times the engines in-process. Every workload
 * reports the same end-to-end metrics, so a later change can be judged
 * on each (metric, workload) pair.
 */

#ifndef PERFLEDGER_WORKLOADS_HPP
#define PERFLEDGER_WORKLOADS_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "report.hpp"
#include "stats.hpp"

namespace ledger {

/** Warm-up before every measured window (at most a tenth of it). */
inline constexpr double kWarmupS = 1;

/**
 * A run's bounded rate and times are read from its least-disturbed
 * tenth of slices, intervals or set-ups. Other tenants of a shared host
 * only ever slow the program down, so the fast end of a run repeats
 * from run to run where its middle does not (README, "Noise on a
 * shared host").
 */
inline constexpr double kQuietShare = 0.1;

/** How one workload run is configured. */
struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 0; //!< measured window (a traced run splits it)
    double warmupS = 0;
    std::string daemonExe; //!< the stnet_serve binary
    std::string workDir;   //!< scratch space for packed models
    std::string traceOut;  //!< Chrome trace file; set = the traced run

    bool traced() const { return !traceOut.empty(); }
};

/** Names of every workload, in report order. */
const std::vector<std::string> &workloadNames();

/** tnn-paced, tnn-saturate, lsm-paced. */
bool isServeWorkload(const std::string &name);
WorkloadResult runServeWorkload(const RunOptions &opt);

/** offline. */
WorkloadResult runOfflineWorkload(const RunOptions &opt);

/** A result for @p opt with its identity filled in. */
WorkloadResult newResult(const RunOptions &opt, WorkloadShape shape);

/** Volleys/s of @p slices: the rate of their quiet end (kQuietShare). */
double sliceVps(const std::vector<Slice> &slices);

/** The quiet end (kQuietShare) of @p times: set-ups, interval p50s. */
double quietTime(std::vector<double> times);

/**
 * Latencies in ns, added to @p r over 1-s intervals from @p begin_ns:
 * lat_p50_ms (quietTime of the interval p50s), lat_p90_ms / lat_p99_ms
 * (median of the interval percentiles), and lat_p50_window_ms (the
 * nearest-rank p50 of the whole window); returns that last one in ns.
 */
double addLatencyMetrics(WorkloadResult &r,
                         const std::vector<TimedSample> &samples,
                         uint64_t begin_ns, double seconds);

/**
 * throughput_vps (sliceVps), throughput_window_vps (volleys over the
 * whole window) and cpu_ms_per_kvolley (median over @p slices;
 * @p cpu_what names whose CPU was counted).
 */
void addRateMetrics(WorkloadResult &r, const std::vector<Slice> &slices,
                    const std::string &cpu_what);

/** Best-of-three nanoseconds of @p body (one preempted round must not
 *  decide a ratio). */
double bestOf3(const std::function<void()> &body);

} // namespace ledger

#endif // PERFLEDGER_WORKLOADS_HPP
