#include "obs/flight.hpp"

#include <cstdlib>
#include <ostream>
#include <sstream>

#include "obs/export.hpp"  // publishFile
#include "obs/log.hpp"     // logNowMs: shared steady-clock domain
#include "obs/metrics.hpp" // detail::jsonEscape

namespace st::obs {

FlightRecorder &
FlightRecorder::instance()
{
    // Immortal for the same reason as MetricsRegistry::instance():
    // signal/atexit paths may still dump during static destruction.
    static FlightRecorder *rec = [] {
        auto *r = new FlightRecorder;
        const char *env = std::getenv("ST_FLIGHT");
        if (env != nullptr && *env != '\0')
            r->setDumpPath(env);
        return r;
    }();
    return *rec;
}

void
FlightRecorder::record(const char *kind, uint64_t a, uint64_t b,
                       std::string detail)
{
    Event event{logNowMs(), kind, a, b, std::move(detail)};
    std::lock_guard<std::mutex> guard(mutex_);
    if (ring_.size() < kRingCap) {
        ring_.push_back(std::move(event));
    } else {
        ring_[head_] = std::move(event);
        head_ = (head_ + 1) % kRingCap;
        ++dropped_;
    }
}

void
FlightRecorder::setDumpPath(std::string path)
{
    std::lock_guard<std::mutex> guard(mutex_);
    path_ = std::move(path);
}

std::string
FlightRecorder::dumpPath() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return path_;
}

void
FlightRecorder::writeJson(std::ostream &out) const
{
    // Copy under the lock first so serialization cannot stall
    // recorders (same discipline as TraceSession::writeJson).
    std::vector<Event> events;
    uint64_t dropped;
    {
        std::lock_guard<std::mutex> guard(mutex_);
        dropped = dropped_;
        events.reserve(ring_.size());
        for (size_t i = 0; i < ring_.size(); ++i)
            events.push_back(ring_[(head_ + i) % ring_.size()]);
    }
    out << "{\"dropped\": " << dropped << ", \"events\": [\n";
    for (size_t i = 0; i < events.size(); ++i) {
        const Event &e = events[i];
        out << (i ? ",\n" : "") << "  {\"ts_ms\": " << e.tsMs
            << ", \"kind\": \"" << detail::jsonEscape(e.kind)
            << "\", \"a\": " << e.a << ", \"b\": " << e.b
            << ", \"detail\": \"" << detail::jsonEscape(e.detail)
            << "\"}";
    }
    out << "\n]}\n";
}

std::string
FlightRecorder::toJson() const
{
    std::ostringstream out;
    writeJson(out);
    return out.str();
}

bool
FlightRecorder::dump()
{
    const std::string path = dumpPath();
    if (path.empty())
        return false;
    return publishFile(
        path, [this](std::ostream &out) { writeJson(out); },
        "flight.dump_failed");
}

size_t
FlightRecorder::eventCount() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return ring_.size();
}

uint64_t
FlightRecorder::droppedEvents() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return dropped_;
}

void
FlightRecorder::clear()
{
    std::lock_guard<std::mutex> guard(mutex_);
    ring_.clear();
    head_ = 0;
    dropped_ = 0;
}

} // namespace st::obs
