/**
 * @file
 * Lock-free metrics registry: counters, gauges and power-of-two
 * histograms for the engine hot paths (DESIGN.md Sec. 8).
 *
 * The paper's quantitative claims are event economics — spike counts,
 * gate transitions, energy proxies — so the engines must be able to
 * report what they did, not just how long they took. The registry is
 * built so that the *recording* side is cheap enough to live inside
 * the compiled evaluator and the event agenda:
 *
 *   - registration (cold, by static string name) takes a mutex and
 *     hands back a stable Counter/Gauge/Histogram handle;
 *   - recording (hot) is one relaxed fetch_add into the calling
 *     thread's shard — no locks, no contention between threads, and
 *     no synchronization with readers beyond the atomic itself;
 *   - aggregation happens on snapshot(): the reader sums every
 *     thread's shard, so totals are exact once writers quiesce and
 *     monotonically approximate while they run.
 *
 * Shards are owned by the registry and survive thread exit, so a
 * worker's contribution is never lost. A registry must outlive every
 * thread that recorded into it; the process-wide instance() is
 * immortal (leaked singleton) precisely so pool workers can record
 * during static destruction.
 *
 * Instrument sites should go through the ST_OBS_* macros in
 * obs/obs.hpp, which compile to nothing when the build sets
 * ST_OBS_ENABLED=0; the registry itself always compiles (snapshots
 * are then simply empty).
 */

#ifndef ST_OBS_METRICS_HPP
#define ST_OBS_METRICS_HPP

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace st::obs {

class MetricsRegistry;

namespace detail {

/** Minimal JSON string escape shared by metrics and trace export. */
std::string jsonEscape(std::string_view s);

/**
 * Mangle a dotted metric name into a Prometheus-legal series name:
 * every character outside [a-zA-Z0-9_] becomes '_' and the result is
 * prefixed "st_" (which also guards against a leading digit).
 */
std::string promMangle(std::string_view name);

} // namespace detail

/**
 * Quantile estimate over power-of-two histogram buckets (bucket 0
 * holds v == 0, bucket k holds [2^(k-1), 2^k)): find the bucket the
 * rank-th sample falls in and interpolate linearly inside it. @p q is
 * clamped to [0, 1]; an empty histogram yields 0.
 */
double bucketQuantile(std::span<const uint64_t> buckets, double q);

/** The quantiles every histogram writer reports, as (key, q). */
inline constexpr std::array<std::pair<const char *, double>, 4>
    kQuantiles = {{{"p50", 0.50},
                   {"p90", 0.90},
                   {"p99", 0.99},
                   {"p999", 0.999}}};

namespace detail {

/**
 * Registry lifetime ids. The per-thread shard cache keys on this id,
 * not the registry address, so a stale cache entry left behind by a
 * destroyed (test) registry can never match a new registry that the
 * allocator placed at the same address.
 */
inline std::atomic<uint64_t> g_registry_ids{0};

/**
 * Transparent string hash so the registry's name index can be probed
 * with a std::string_view directly — registration hits (every call
 * site after its first) allocate nothing.
 */
struct TransparentStringHash
{
    using is_transparent = void;

    size_t
    operator()(std::string_view s) const noexcept
    {
        return std::hash<std::string_view>{}(s);
    }
};

} // namespace detail

/** Monotone event counter; add() is one relaxed atomic per call. */
class Counter
{
  public:
    void add(uint64_t n = 1);
    void operator+=(uint64_t n) { add(n); }

    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

  private:
    friend class MetricsRegistry;
    Counter(MetricsRegistry *reg, uint32_t slot)
        : reg_(reg), slot_(slot)
    {
    }

    MetricsRegistry *reg_;
    uint32_t slot_;
};

/**
 * Last-value / high-watermark cell. Unlike counters a gauge is a
 * single process-global atomic (per-thread "last value" shards have
 * no meaningful aggregation), so set() and setMax() stay lock-free.
 */
class Gauge
{
  public:
    /** Overwrite the value (last writer wins). */
    void
    set(uint64_t v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    /** Raise the value to @p v if it is larger (CAS max loop). */
    void
    setMax(uint64_t v)
    {
        uint64_t cur = value_.load(std::memory_order_relaxed);
        while (cur < v && !value_.compare_exchange_weak(
                              cur, v, std::memory_order_relaxed)) {
        }
    }

    uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    Gauge(const Gauge &) = delete;
    Gauge &operator=(const Gauge &) = delete;

  private:
    friend class MetricsRegistry;
    Gauge() = default;

    std::atomic<uint64_t> value_{0};
};

/**
 * Histogram with power-of-two buckets: record(v) lands in bucket
 * bit_width(v), i.e. bucket 0 holds v == 0 and bucket k holds
 * [2^(k-1), 2^k). 65 buckets cover the full uint64 range; a running
 * sum slot makes the mean recoverable. One record() is two relaxed
 * atomics into the thread shard.
 */
class Histogram
{
  public:
    /** Buckets per histogram (bit_width of a uint64 is 0..64). */
    static constexpr uint32_t kBuckets = 65;

    void record(uint64_t v);

    /** The shard-slot bucket index value @p v lands in. */
    static uint32_t
    bucketOf(uint64_t v)
    {
        return static_cast<uint32_t>(std::bit_width(v));
    }

    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

  private:
    friend class MetricsRegistry;
    Histogram(MetricsRegistry *reg, uint32_t base)
        : reg_(reg), base_(base)
    {
    }

    MetricsRegistry *reg_;
    uint32_t base_; //!< first shard slot: [sum][buckets 0..64]
};

/** Aggregated view of every registered metric, in registration order. */
struct MetricsSnapshot
{
    struct Scalar
    {
        std::string name;
        uint64_t value = 0;
    };

    /**
     * One histogram's aggregate, or a plain accumulator. Full-width
     * buckets, so readings subtract; the writers trim trailing zeros.
     */
    struct Hist
    {
        std::string name;
        uint64_t count = 0;
        uint64_t sum = 0;
        std::array<uint64_t, Histogram::kBuckets> buckets{};

        void
        record(uint64_t v)
        {
            ++count;
            sum += v;
            ++buckets[Histogram::bucketOf(v)];
        }

        /** Quantile estimate (see bucketQuantile). */
        double
        percentile(double q) const
        {
            return bucketQuantile(buckets, q);
        }

        /** What was recorded after @p before, an earlier reading. */
        Hist since(const Hist &before) const;
    };

    std::vector<Scalar> counters;
    std::vector<Scalar> gauges;
    std::vector<Hist> histograms;

    /**
     * Serialize as one JSON object with three sub-objects keyed
     * "counters", "gauges" (name -> value) and "histograms" (name ->
     * {count, sum, buckets}), so metric names can never collide with
     * the structural keys. This is the object bench --json embeds
     * under "metrics".
     */
    void writeJson(std::ostream &out) const;
    std::string toJson() const;

    /**
     * Serialize in the Prometheus text exposition format (version
     * 0.0.4): counters as `st_<name>_total`, gauges as `st_<name>`,
     * histograms as cumulative `st_<name>_bucket{le="..."}` series
     * plus `_sum`/`_count` and kQuantiles gauge estimates. Each
     * family carries HELP/TYPE lines naming the original dotted
     * metric.
     */
    void writeProm(std::ostream &out) const;
    std::string toProm() const;
};

/**
 * Owner of the metric name table and the per-thread shards. Handles
 * returned by counter()/gauge()/histogram() are stable for the
 * registry's lifetime; re-registering a name of the same kind returns
 * the same handle, a kind mismatch throws std::invalid_argument.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** The process-wide registry (immortal; see file comment). */
    static MetricsRegistry &instance();

    Counter &counter(std::string_view name);
    Gauge &gauge(std::string_view name);
    Histogram &histogram(std::string_view name);

    /** Aggregate every shard into one snapshot (registration order). */
    MetricsSnapshot snapshot() const;

    /** Number of registered metrics (all kinds). */
    size_t metricCount() const;

  private:
    friend class Counter;
    friend class Histogram;

    /** Shard slot budget; registration past this throws. */
    static constexpr uint32_t kShardSlots = 1024;

    /** One thread's slot block (zero-initialized atomics). */
    struct Shard
    {
        std::atomic<uint64_t> slots[kShardSlots] = {};
    };

    enum class Kind : uint8_t
    {
        Counter,
        Gauge,
        Histogram,
    };

    struct MetricInfo
    {
        std::string name;
        Kind kind;
        uint32_t slot; //!< shard slot base (unused for gauges)
        uint32_t span; //!< shard slots consumed (0 for gauges)
        void *obj;     //!< the Counter/Gauge/Histogram, per kind
    };

    struct TlsEntry
    {
        uint64_t id;
        std::atomic<uint64_t> *slots;
    };

    /** The calling thread's shard-slot cache (all registries). */
    static std::vector<TlsEntry> &
    tlsCache()
    {
        thread_local std::vector<TlsEntry> cache;
        return cache;
    }

    /** Hot path: resolve the calling thread's slots for *this. */
    std::atomic<uint64_t> *
    localSlots()
    {
        for (const TlsEntry &entry : tlsCache()) {
            if (entry.id == id_)
                return entry.slots;
        }
        return localSlotsSlow();
    }

    std::atomic<uint64_t> *localSlotsSlow();

    /**
     * Find-or-create under mutex_ and return the metric *object*
     * pointer, resolved while the lock is still held. Callers must
     * not touch metrics_/index_ or the handle deques themselves: a
     * concurrent registration may reallocate metrics_ and mutate the
     * deques, so only the returned object (stable, unique_ptr-owned)
     * is safe to use after the lock is released.
     */
    void *registerMetric(std::string_view name, Kind kind,
                         uint32_t span);
    uint64_t sumSlot(uint32_t slot) const;

    const uint64_t id_ =
        detail::g_registry_ids.fetch_add(1, std::memory_order_relaxed);
    mutable std::mutex mutex_;
    std::vector<MetricInfo> metrics_;
    std::unordered_map<std::string, size_t,
                       detail::TransparentStringHash, std::equal_to<>>
        index_;
    std::deque<std::unique_ptr<Counter>> counters_;
    std::deque<std::unique_ptr<Gauge>> gauges_;
    std::deque<std::unique_ptr<Histogram>> histograms_;
    std::vector<std::unique_ptr<Shard>> shards_;
    uint32_t nextSlot_ = 0;
};

inline void
Counter::add(uint64_t n)
{
    reg_->localSlots()[slot_].fetch_add(n, std::memory_order_relaxed);
}

inline void
Histogram::record(uint64_t v)
{
    std::atomic<uint64_t> *slots = reg_->localSlots();
    slots[base_].fetch_add(v, std::memory_order_relaxed);
    slots[base_ + 1 + bucketOf(v)].fetch_add(
        1, std::memory_order_relaxed);
}

} // namespace st::obs

#endif // ST_OBS_METRICS_HPP
