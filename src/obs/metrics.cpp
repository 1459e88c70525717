#include "obs/metrics.hpp"

#include <cassert>
#include <cmath>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace st::obs {

namespace detail {

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            c = ' ';
        out += c;
    }
    return out;
}

std::string
promMangle(std::string_view name)
{
    std::string out = "st_";
    out.reserve(name.size() + 3);
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        out += ok ? c : '_';
    }
    return out;
}

} // namespace detail

namespace {

/** Inclusive upper bound of power-of-two bucket @p k. */
uint64_t
bucketUpper(uint32_t k)
{
    if (k == 0)
        return 0;
    if (k >= 64)
        return UINT64_MAX;
    return (uint64_t{1} << k) - 1;
}

/** @p h's buckets up to the last nonempty one, as the writers print. */
std::span<const uint64_t>
usedBuckets(const MetricsSnapshot::Hist &h)
{
    size_t n = h.buckets.size();
    while (n > 0 && h.buckets[n - 1] == 0)
        --n;
    return {h.buckets.data(), n};
}

} // namespace

double
bucketQuantile(std::span<const uint64_t> buckets, double q)
{
    uint64_t total = 0;
    for (uint64_t b : buckets)
        total += b;
    if (total == 0)
        return 0.0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    // Nearest-rank with interpolation: the target is the rank-th
    // sample (1-based) in sorted order.
    double rank = q * static_cast<double>(total);
    if (rank < 1.0)
        rank = 1.0;
    double cum = 0.0;
    for (size_t k = 0; k < buckets.size(); ++k) {
        if (buckets[k] == 0)
            continue;
        const double next = cum + static_cast<double>(buckets[k]);
        if (rank <= next) {
            if (k == 0)
                return 0.0; // bucket 0 holds only v == 0
            // Interpolate linearly across the bucket's value range
            // [2^(k-1), 2^k) by the fraction of the bucket's samples
            // below the target rank.
            const double lo = std::ldexp(1.0, static_cast<int>(k) - 1);
            const double hi = std::ldexp(1.0, static_cast<int>(k));
            const double frac =
                (rank - cum) / static_cast<double>(buckets[k]);
            return lo + frac * (hi - lo);
        }
        cum = next;
    }
    // Unreachable when total > 0; keep a sane answer for safety.
    return std::ldexp(1.0, static_cast<int>(buckets.size()));
}

MetricsRegistry &
MetricsRegistry::instance()
{
    // Deliberately leaked: pool workers and atexit handlers may still
    // record during static destruction, so the global registry must
    // never die. The single block stays reachable through this
    // pointer, so LeakSanitizer does not flag it.
    static MetricsRegistry *reg = new MetricsRegistry;
    return *reg;
}

void *
MetricsRegistry::registerMetric(std::string_view name, Kind kind,
                                uint32_t span)
{
    std::lock_guard<std::mutex> guard(mutex_);
    auto hit = index_.find(name);
    if (hit != index_.end()) {
        MetricInfo &info = metrics_[hit->second];
        if (info.kind != kind) {
            throw std::invalid_argument(
                "obs: metric '" + info.name +
                "' re-registered with a different kind");
        }
        assert(info.span == span &&
               "obs: metric re-registered with a different span");
        return info.obj;
    }
    if (span > 0 && nextSlot_ + span > kShardSlots) {
        throw std::length_error(
            "obs: shard slot budget exhausted (kShardSlots)");
    }
    MetricInfo info;
    info.name = std::string(name);
    info.kind = kind;
    info.slot = nextSlot_;
    info.span = span;
    nextSlot_ += span;
    switch (kind) {
      case Kind::Counter: {
        auto owned =
            std::unique_ptr<Counter>(new Counter(this, info.slot));
        info.obj = owned.get();
        counters_.push_back(std::move(owned));
        break;
      }
      case Kind::Gauge: {
        auto owned = std::unique_ptr<Gauge>(new Gauge());
        info.obj = owned.get();
        gauges_.push_back(std::move(owned));
        break;
      }
      case Kind::Histogram: {
        auto owned = std::unique_ptr<Histogram>(
            new Histogram(this, info.slot));
        info.obj = owned.get();
        histograms_.push_back(std::move(owned));
        break;
      }
    }
    metrics_.push_back(std::move(info));
    index_.emplace(metrics_.back().name, metrics_.size() - 1);
    return metrics_.back().obj;
}

Counter &
MetricsRegistry::counter(std::string_view name)
{
    return *static_cast<Counter *>(
        registerMetric(name, Kind::Counter, 1));
}

Gauge &
MetricsRegistry::gauge(std::string_view name)
{
    return *static_cast<Gauge *>(registerMetric(name, Kind::Gauge, 0));
}

Histogram &
MetricsRegistry::histogram(std::string_view name)
{
    // Layout per histogram: [sum][buckets 0..64].
    return *static_cast<Histogram *>(registerMetric(
        name, Kind::Histogram, 1 + Histogram::kBuckets));
}

std::atomic<uint64_t> *
MetricsRegistry::localSlotsSlow()
{
    Shard *shard;
    {
        std::lock_guard<std::mutex> guard(mutex_);
        shards_.push_back(std::make_unique<Shard>());
        shard = shards_.back().get();
    }
    tlsCache().push_back({id_, shard->slots});
    return shard->slots;
}

uint64_t
MetricsRegistry::sumSlot(uint32_t slot) const
{
    uint64_t total = 0;
    for (const auto &shard : shards_)
        total += shard->slots[slot].load(std::memory_order_relaxed);
    return total;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    MetricsSnapshot snap;
    for (const MetricInfo &info : metrics_) {
        switch (info.kind) {
          case Kind::Counter:
            snap.counters.push_back({info.name, sumSlot(info.slot)});
            break;
          case Kind::Gauge:
            snap.gauges.push_back(
                {info.name,
                 static_cast<const Gauge *>(info.obj)->value()});
            break;
          case Kind::Histogram: {
            MetricsSnapshot::Hist h;
            h.name = info.name;
            h.sum = sumSlot(info.slot);
            for (uint32_t b = 0; b < Histogram::kBuckets; ++b) {
                h.buckets[b] = sumSlot(info.slot + 1 + b);
                h.count += h.buckets[b];
            }
            snap.histograms.push_back(std::move(h));
            break;
          }
        }
    }
    return snap;
}

size_t
MetricsRegistry::metricCount() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return metrics_.size();
}

MetricsSnapshot::Hist
MetricsSnapshot::Hist::since(const Hist &before) const
{
    Hist d = *this;
    d.count -= before.count;
    d.sum -= before.sum;
    for (size_t k = 0; k < buckets.size(); ++k)
        d.buckets[k] -= before.buckets[k];
    return d;
}

void
MetricsSnapshot::writeJson(std::ostream &out) const
{
    // Counters and gauges each get their own sub-object so a metric
    // name can never collide with the structural "histograms" key.
    auto scalars = [&](const char *key,
                       const std::vector<Scalar> &group) {
        out << "\"" << key << "\": {";
        for (size_t i = 0; i < group.size(); ++i) {
            out << (i ? ", " : "") << "\""
                << detail::jsonEscape(group[i].name)
                << "\": " << group[i].value;
        }
        out << "}";
    };
    out << "{";
    scalars("counters", counters);
    out << ", ";
    scalars("gauges", gauges);
    out << ", \"histograms\": {";
    for (size_t i = 0; i < histograms.size(); ++i) {
        const Hist &h = histograms[i];
        out << (i ? ", " : "") << "\""
            << detail::jsonEscape(h.name) << "\": {\"count\": "
            << h.count << ", \"sum\": " << h.sum;
        for (const auto &[key, q] : kQuantiles)
            out << ", \"" << key << "\": " << h.percentile(q);
        out << ", \"buckets\": [";
        const std::span<const uint64_t> used = usedBuckets(h);
        for (size_t b = 0; b < used.size(); ++b)
            out << (b ? ", " : "") << used[b];
        out << "]}";
    }
    out << "}}";
}

std::string
MetricsSnapshot::toJson() const
{
    std::ostringstream out;
    writeJson(out);
    return out.str();
}

void
MetricsSnapshot::writeProm(std::ostream &out) const
{
    for (const Scalar &c : counters) {
        const std::string m = detail::promMangle(c.name);
        out << "# HELP " << m << "_total counter " << c.name << "\n";
        out << "# TYPE " << m << "_total counter\n";
        out << m << "_total " << c.value << "\n";
    }
    for (const Scalar &g : gauges) {
        const std::string m = detail::promMangle(g.name);
        out << "# HELP " << m << " gauge " << g.name << "\n";
        out << "# TYPE " << m << " gauge\n";
        out << m << " " << g.value << "\n";
    }
    for (const Hist &h : histograms) {
        const std::string m = detail::promMangle(h.name);
        out << "# HELP " << m << " histogram " << h.name << "\n";
        out << "# TYPE " << m << " histogram\n";
        uint64_t cum = 0;
        const std::span<const uint64_t> used = usedBuckets(h);
        for (size_t k = 0; k < used.size(); ++k) {
            cum += used[k];
            out << m << "_bucket{le=\""
                << bucketUpper(static_cast<uint32_t>(k)) << "\"} "
                << cum << "\n";
        }
        out << m << "_bucket{le=\"+Inf\"} " << h.count << "\n";
        out << m << "_sum " << h.sum << "\n";
        out << m << "_count " << h.count << "\n";
        // Quantile estimates as companion gauges: scrapers that only
        // speak flat series still get the tail without re-deriving
        // the power-of-two interpolation.
        for (const auto &[suffix, q] : kQuantiles) {
            out << "# TYPE " << m << "_" << suffix << " gauge\n";
            out << m << "_" << suffix << " " << h.percentile(q)
                << "\n";
        }
    }
}

std::string
MetricsSnapshot::toProm() const
{
    std::ostringstream out;
    writeProm(out);
    return out.str();
}

} // namespace st::obs
