/**
 * @file
 * The ledger's own statistics: nearest-rank percentiles where a volley
 * that never came back counts as +inf, the interval-p99 median that
 * keeps one slow second from deciding a run's tail, and the per-session
 * send/answer log the load generator fills.
 */

#ifndef PERFLEDGER_STATS_HPP
#define PERFLEDGER_STATS_HPP

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace ledger {

/** Latency of a volley that was dropped or never answered. */
inline constexpr double kNever = std::numeric_limits<double>::infinity();

/**
 * Nearest-rank percentile (the smallest value with at least q of the
 * samples at or below it) of @p values; +inf samples sort last. NaN
 * for an empty sample.
 */
double percentile(std::vector<double> values, double q);

/** Median of @p values (the mean of the two middle ones when even). */
double median(std::vector<double> values);

/**
 * One slice of a measured window. Rates and costs are reported per
 * slice, so a few seconds of a noisy neighbour on the host move a
 * run's number less than a whole-window mean would.
 */
struct Slice
{
    double wallNs = 0;
    double items = 0; //!< volleys completed in the slice
    double cpuNs = 0; //!< CPU the measured process spent in it
};

/** Slices in a window of @p seconds: one per second, at least one. */
size_t sliceCount(double seconds);

/** One latency sample stamped with the time that places it in an
 *  interval (its due time for an open loop, its send time otherwise). */
struct TimedSample
{
    uint64_t atNs = 0;
    double value = 0;
};

/** The values of @p samples, in order. */
std::vector<double> sampleValues(std::span<const TimedSample> samples);

/** Result of intervalPercentileMedian(). */
struct IntervalTail
{
    double median = 0;           //!< median of the per-interval values
    std::vector<double> values;  //!< percentile of each non-empty interval
    std::vector<size_t> counts;  //!< samples in each interval
};

/**
 * Split [@p begin_ns, begin_ns + intervals * interval_ns) into equal
 * intervals, take the @p q percentile of each non-empty interval's
 * samples, and return the median of those with the per-interval sample
 * counts. Samples outside the span are ignored.
 */
IntervalTail intervalPercentileMedian(std::span<const TimedSample> samples,
                                      double q, uint64_t begin_ns,
                                      uint64_t interval_ns,
                                      size_t intervals);

/**
 * What one session sent and what came back, indexed by volley seq.
 * Answers may arrive in any seq order (`drop` notices for shed volleys
 * overtake deliveries), so every lookup goes through the seq.
 */
class VolleyLog
{
  public:
    enum class State : uint8_t
    {
        Pending,
        Delivered,
        Dropped,
    };

    struct Entry
    {
        uint64_t dueNs = 0;  //!< when the schedule wanted it sent
        uint64_t sendNs = 0; //!< when it was handed to the socket
        uint64_t doneNs = 0; //!< when its answer arrived
        State state = State::Pending;
    };

    /** Record volley @p seq as sent; seqs must arrive in order. */
    void sent(uint64_t seq, uint64_t due_ns, uint64_t send_ns);

    /**
     * Record the answer to @p seq. False (and nothing recorded) for a
     * seq never sent or already answered — a protocol violation.
     */
    bool answered(uint64_t seq, uint64_t at_ns, bool delivered);

    size_t size() const { return entries_.size(); }
    const Entry &at(uint64_t seq) const { return entries_.at(seq); }

    /**
     * Latency of @p seq in nanoseconds, measured from its due time
     * (@p from_due) or its send time; kNever unless delivered.
     */
    double latencyNs(uint64_t seq, bool from_due) const;

  private:
    std::vector<Entry> entries_;
};

} // namespace ledger

#endif // PERFLEDGER_STATS_HPP
