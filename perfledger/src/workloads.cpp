#include "workloads.hpp"

#include <algorithm>

#include "proc.hpp"

namespace ledger {

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "tnn-paced", "tnn-saturate", "lsm-paced", "offline"};
    return names;
}

bool
isServeWorkload(const std::string &name)
{
    return name == "tnn-paced" || name == "tnn-saturate" ||
           name == "lsm-paced";
}

WorkloadResult
newResult(const RunOptions &opt, WorkloadShape shape)
{
    WorkloadResult r;
    r.workload = opt.workload;
    r.shape = std::move(shape);
    r.seed = opt.seed;
    r.seconds = opt.seconds;
    r.warmupS = opt.warmupS;
    r.traced = opt.traced();
    return r;
}

double
sliceVps(const std::vector<Slice> &slices)
{
    std::vector<double> rates;
    for (const Slice &s : slices)
        rates.push_back(s.items / s.wallNs * 1e9);
    return percentile(std::move(rates), 1 - kQuietShare);
}

double
quietTime(std::vector<double> times)
{
    return percentile(std::move(times), kQuietShare);
}

double
addLatencyMetrics(WorkloadResult &r,
                  const std::vector<TimedSample> &samples,
                  uint64_t begin_ns, double seconds)
{
    const std::vector<double> values = sampleValues(samples);
    const size_t intervals = sliceCount(seconds);
    const auto over_intervals = [&](double q) {
        return intervalPercentileMedian(
            samples, q, begin_ns,
            static_cast<uint64_t>(seconds / double(intervals) * 1e9),
            intervals);
    };
    const auto range = [&](const IntervalTail &tail) {
        const auto [lo, hi] =
            std::minmax_element(tail.counts.begin(), tail.counts.end());
        const auto [v_lo, v_hi] =
            std::minmax_element(tail.values.begin(), tail.values.end());
        return " over " + std::to_string(intervals) + " 1-s intervals, " +
               jsonNumber(*v_lo / 1e6) + ".." + jsonNumber(*v_hi / 1e6) +
               ", " + std::to_string(*lo) + ".." + std::to_string(*hi) +
               " samples each";
    };
    const IntervalTail mid = over_intervals(0.50);
    r.add(r.endToEnd, "lat_p50_ms", quietTime(mid.values) / 1e6, "ms",
          values.size(), "10th percentile" + range(mid));
    for (const auto &[q, name] : {std::pair{0.90, "lat_p90_ms"},
                                  std::pair{0.99, "lat_p99_ms"}}) {
        const IntervalTail tail = over_intervals(q);
        r.add(r.endToEnd, name, tail.median / 1e6, "ms", values.size(),
              "median" + range(tail));
    }
    const double p50 = percentile(values, 0.50);
    r.add(r.endToEnd, "lat_p50_window_ms", p50 / 1e6, "ms", values.size(),
          "nearest-rank p50 of the whole window");
    return p50;
}

void
addRateMetrics(WorkloadResult &r, const std::vector<Slice> &slices,
               const std::string &cpu_what)
{
    std::vector<double> rates, costs;
    double items = 0, wall = 0;
    for (const Slice &s : slices) {
        rates.push_back(s.items / s.wallNs * 1e9);
        costs.push_back(s.cpuNs / 1e6 / s.items * 1000);
        items += s.items;
        wall += s.wallNs;
    }
    const std::string of = "of " + std::to_string(slices.size()) +
                           " 1-s slices";
    const auto [lo, hi] = std::minmax_element(rates.begin(), rates.end());
    r.add(r.endToEnd, "throughput_vps", sliceVps(slices), "volleys/s",
          static_cast<uint64_t>(items),
          "90th percentile " + of + ", " + jsonNumber(*lo) + ".." +
              jsonNumber(*hi));
    r.add(r.endToEnd, "throughput_window_vps", items / wall * 1e9,
          "volleys/s", static_cast<uint64_t>(items),
          "volleys over the whole window");
    r.add(r.endToEnd, "cpu_ms_per_kvolley", median(costs), "ms/kvolley",
          static_cast<uint64_t>(items), "median " + of + ", " + cpu_what);
}

double
bestOf3(const std::function<void()> &body)
{
    double best = kNever;
    for (int round = 0; round < 3; ++round) {
        const uint64_t t0 = nowNs();
        body();
        best = std::min(best, static_cast<double>(nowNs() - t0));
    }
    return best;
}

} // namespace ledger
