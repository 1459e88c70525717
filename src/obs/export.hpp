/**
 * @file
 * Background Prometheus-text snapshot publisher (DESIGN.md Sec. 13).
 *
 * Long-running daemons need a scrape surface without growing an HTTP
 * stack: the exporter periodically renders the global registry's
 * snapshot in the Prometheus text exposition format to a file, using
 * the same write-to-tmp-then-rename discipline as bench --json so a
 * concurrent reader (node_exporter textfile collector, a test, `cat`)
 * never observes a torn file.
 *
 * Activation mirrors ST_TRACE: `ST_METRICS_EXPORT=path[,interval_ms]`
 * read once via fromEnv(). This library sits below st_util, so the
 * env parsing here is deliberately raw getenv (same precedent as
 * trace.cpp).
 */

#ifndef ST_OBS_EXPORT_HPP
#define ST_OBS_EXPORT_HPP

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

namespace st::obs {

/**
 * Write @p render's output to `<path>.tmp`, then rename it over
 * @p path. Publishes are serialized, so two never share a staging
 * file. A failure removes the temp file, ticks the counter
 * @p failed_counter and returns false.
 */
bool publishFile(const std::string &path,
                 const std::function<void(std::ostream &)> &render,
                 const char *failed_counter);

class MetricsExporter
{
  public:
    /** Default publish period when the env var names only a path. */
    static constexpr uint64_t kDefaultIntervalMs = 1000;

    /** Floor: re-rendering faster than this is pure contention. */
    static constexpr uint64_t kMinIntervalMs = 10;

    MetricsExporter(std::string path, uint64_t interval_ms);
    ~MetricsExporter();

    MetricsExporter(const MetricsExporter &) = delete;
    MetricsExporter &operator=(const MetricsExporter &) = delete;

    /**
     * Build an exporter from `ST_METRICS_EXPORT=path[,interval_ms]`,
     * or nullptr when the variable is unset/empty. A malformed
     * interval suffix is treated as part of the path (paths may
     * contain commas); the exporter is returned stopped — call
     * start().
     */
    static std::unique_ptr<MetricsExporter> fromEnv();

    /** Launch the publisher thread (idempotent). */
    void start();

    /** Stop the thread after one final publish (idempotent). */
    void stop();

    /**
     * Render one snapshot to the target path (publishFile). Returns
     * false when the tmp file cannot be written or renamed; failures
     * tick `metrics.export_failed`.
     */
    bool writeOnce();

    const std::string &path() const { return path_; }
    uint64_t intervalMs() const { return intervalMs_; }

  private:
    void loop();

    std::string path_;
    uint64_t intervalMs_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stopping_ = false;
    bool running_ = false;
    std::thread thread_;
};

} // namespace st::obs

#endif // ST_OBS_EXPORT_HPP
