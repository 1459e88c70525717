/**
 * @file
 * Flight recorder: a bounded in-memory ring of recent structured
 * events, dumped to a JSON artifact on watchdog trips, batch panics
 * and SIGTERM drains (DESIGN.md Sec. 13).
 *
 * Chaos-soak failures and production incidents used to reduce to
 * "exit code 1"; the recorder turns them into a replayable timeline:
 * session opens/closes, volley drops with reason, quarantines,
 * force-closes and watchdog trips, each stamped on the steady clock.
 *
 * The ring keeps the newest kRingCap events (drop-oldest) so the
 * dump always covers the window leading up to the incident; the
 * count of evicted events is reported in the artifact ("dropped").
 *
 * Activation mirrors ST_TRACE: `ST_FLIGHT=path` arms the process-wide
 * instance() with a dump path at first use; dump() is also callable
 * explicitly (the serve watchdog and stnet_serve's SIGTERM path do).
 * Recording is mutex-guarded and cheap (one string copy); it is NOT
 * compiled out under ST_OBS_ENABLED=0 because the recorder is a
 * crash-forensics surface, not throughput instrumentation — callers
 * on hot paths must keep their record() sites on cold branches.
 */

#ifndef ST_OBS_FLIGHT_HPP
#define ST_OBS_FLIGHT_HPP

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace st::obs {

class FlightRecorder
{
  public:
    /** Events retained; older ones are evicted oldest-first. */
    static constexpr size_t kRingCap = 1024;

    /** One recorded event. Meaning of a/b is per-kind (ids, ms). */
    struct Event
    {
        uint64_t tsMs;
        std::string kind;
        uint64_t a;
        uint64_t b;
        std::string detail;
    };

    FlightRecorder() = default;
    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    /**
     * The process-wide recorder (immortal, like
     * MetricsRegistry::instance()). Reads ST_FLIGHT once on first
     * use to arm the dump path.
     */
    static FlightRecorder &instance();

    /** Append one event (drop-oldest beyond kRingCap). */
    void record(const char *kind, uint64_t a = 0, uint64_t b = 0,
                std::string detail = std::string());

    /** Set/replace the artifact path used by dump(). */
    void setDumpPath(std::string path);
    std::string dumpPath() const;

    /**
     * Write the artifact to the armed path (publishFile: tmp+rename,
     * serialized). Returns false (silently) when no path is armed;
     * failures to write tick `flight.dump_failed`.
     */
    bool dump();

    /** Write the artifact to an explicit stream (tests). */
    void writeJson(std::ostream &out) const;
    std::string toJson() const;

    size_t eventCount() const;
    uint64_t droppedEvents() const;
    void clear();

  private:
    mutable std::mutex mutex_;
    std::vector<Event> ring_; //!< circular once full
    size_t head_ = 0;         //!< oldest element when ring is full
    uint64_t dropped_ = 0;
    std::string path_;
};

} // namespace st::obs

#endif // ST_OBS_FLIGHT_HPP
