#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ledger {

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const size_t index =
        rank < 1 ? 0 : std::min(values.size(), size_t(rank)) - 1;
    return values[index];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(values.begin(), values.end());
    const size_t mid = values.size() / 2;
    if (values.size() % 2 == 1)
        return values[mid];
    return (values[mid - 1] + values[mid]) / 2;
}

size_t
sliceCount(double seconds)
{
    return std::max<size_t>(1, static_cast<size_t>(seconds + 0.5));
}

std::vector<double>
sampleValues(std::span<const TimedSample> samples)
{
    std::vector<double> values;
    values.reserve(samples.size());
    for (const TimedSample &s : samples)
        values.push_back(s.value);
    return values;
}

IntervalTail
intervalPercentileMedian(std::span<const TimedSample> samples, double q,
                         uint64_t begin_ns, uint64_t interval_ns,
                         size_t intervals)
{
    std::vector<std::vector<double>> buckets(intervals);
    for (const TimedSample &s : samples) {
        if (s.atNs < begin_ns)
            continue;
        const uint64_t slot = (s.atNs - begin_ns) / interval_ns;
        if (slot < intervals)
            buckets[slot].push_back(s.value);
    }
    IntervalTail tail;
    for (std::vector<double> &b : buckets) {
        tail.counts.push_back(b.size());
        if (!b.empty())
            tail.values.push_back(percentile(std::move(b), q));
    }
    tail.median = median(tail.values);
    return tail;
}

void
VolleyLog::sent(uint64_t seq, uint64_t due_ns, uint64_t send_ns)
{
    if (seq != entries_.size())
        throw std::logic_error("VolleyLog: seqs must be sent in order");
    entries_.push_back({due_ns, send_ns, 0, State::Pending});
}

bool
VolleyLog::answered(uint64_t seq, uint64_t at_ns, bool delivered)
{
    if (seq >= entries_.size() || entries_[seq].state != State::Pending)
        return false;
    entries_[seq].doneNs = at_ns;
    entries_[seq].state = delivered ? State::Delivered : State::Dropped;
    return true;
}

double
VolleyLog::latencyNs(uint64_t seq, bool from_due) const
{
    const Entry &e = entries_.at(seq);
    if (e.state != State::Delivered)
        return kNever;
    const uint64_t from = from_due ? e.dueNs : e.sendNs;
    return e.doneNs > from ? static_cast<double>(e.doneNs - from) : 0.0;
}

} // namespace ledger
