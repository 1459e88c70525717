/**
 * @file
 * Structured, rate-limited operational logging (DESIGN.md Sec. 13).
 *
 * The serve layer's warning sites were bare fprintf(stderr): unbounded
 * under fault storms, interleavable across threads, and unparseable.
 * This header replaces them with one-line key=value records:
 *
 *   ts_ms=182392 level=warn site=serve.watchdog msg="stall 1200 ms"
 *
 * Guarantees:
 *   - each record is emitted with a single write(2), so concurrent
 *     writers cannot interleave mid-line;
 *   - each ST_LOG site carries its own token bucket (burst 8, refill
 *     1/s) so a pathological loop cannot flood the log — rejected
 *     lines tick the `logged.dropped` counter instead;
 *   - the threshold comes from ST_LOG (debug|info|warn|error|off,
 *     default info), read once at first use.
 *
 * The logging layer always compiles, independent of ST_OBS_ENABLED:
 * operator-facing warnings are part of the server's contract, not
 * optional instrumentation. Only the drop *accounting* rides on the
 * metrics registry (which also always compiles).
 */

#ifndef ST_OBS_LOG_HPP
#define ST_OBS_LOG_HPP

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

namespace st::obs {

enum class LogLevel : uint8_t
{
    Debug = 0,
    Info = 1,
    Warn = 2,
    Error = 3,
    Off = 4,
};

/** Printable lowercase name ("debug".."error"; Off yields "off"). */
const char *logLevelName(LogLevel lv);

/** The active threshold (ST_LOG env, read once; default Info). */
LogLevel logThreshold();

/** Override the threshold (tests, embedders). */
void setLogThreshold(LogLevel lv);

/** Redirect log output (default STDERR_FILENO; tests use a pipe). */
void setLogFd(int fd);

/** True when records at @p lv pass the active threshold. */
inline bool
logEnabled(LogLevel lv)
{
    return lv >= logThreshold() && logThreshold() != LogLevel::Off;
}

/** Milliseconds on the steady clock (same domain as serve stamps). */
uint64_t logNowMs();

/**
 * Assemble and emit one record with a single write(2). @p site is a
 * static dotted identifier ("serve.watchdog"); @p msg is free text
 * (quotes/backslashes escaped, control bytes flattened to spaces).
 */
void logWrite(LogLevel lv, const char *site, std::string_view msg);

/** Account one rate-limited rejection (`logged.dropped`). */
void logDropTick();

/**
 * Token bucket: admit() spends one token when available; tokens
 * refill continuously at @p refill_per_sec up to @p capacity.
 * Thread-safe; one instance lives at each ST_LOG call site.
 */
class LogRateLimiter
{
  public:
    LogRateLimiter(double capacity, double refill_per_sec)
        : capacity_(capacity), refillPerSec_(refill_per_sec),
          tokens_(capacity)
    {
    }

    bool
    admit(uint64_t now_ms)
    {
        std::lock_guard<std::mutex> guard(mutex_);
        if (lastMs_ == 0)
            lastMs_ = now_ms;
        // ST_LOG reads the clock before locking: an older time than
        // the last is no elapsed time, and never moves lastMs_ back.
        if (now_ms > lastMs_) {
            tokens_ += (now_ms - lastMs_) / 1000.0 * refillPerSec_;
            lastMs_ = now_ms;
        }
        if (tokens_ > capacity_)
            tokens_ = capacity_;
        if (tokens_ < 1.0) {
            ++dropped_;
            return false;
        }
        tokens_ -= 1.0;
        return true;
    }

    uint64_t
    dropped() const
    {
        std::lock_guard<std::mutex> guard(mutex_);
        return dropped_;
    }

  private:
    const double capacity_;
    const double refillPerSec_;
    mutable std::mutex mutex_;
    double tokens_;
    uint64_t lastMs_ = 0;
    uint64_t dropped_ = 0;
};

} // namespace st::obs

/**
 * Site-scoped structured log line. The function-local limiter gives
 * every textual call site an independent budget: burst of 8, then
 * one line per second, rejects ticking `logged.dropped`.
 */
#define ST_LOG(lvl, site, msg)                                         \
    do {                                                               \
        if (::st::obs::logEnabled(lvl)) {                              \
            static ::st::obs::LogRateLimiter st_log_limiter_(8.0,      \
                                                             1.0);     \
            if (st_log_limiter_.admit(::st::obs::logNowMs()))          \
                ::st::obs::logWrite(lvl, site, msg);                   \
            else                                                       \
                ::st::obs::logDropTick();                              \
        }                                                              \
    } while (0)

#define ST_LOG_DEBUG(site, msg)                                        \
    ST_LOG(::st::obs::LogLevel::Debug, site, msg)
#define ST_LOG_INFO(site, msg)                                         \
    ST_LOG(::st::obs::LogLevel::Info, site, msg)
#define ST_LOG_WARN(site, msg)                                         \
    ST_LOG(::st::obs::LogLevel::Warn, site, msg)
#define ST_LOG_ERROR(site, msg)                                        \
    ST_LOG(::st::obs::LogLevel::Error, site, msg)

#endif // ST_OBS_LOG_HPP
