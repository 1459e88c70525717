#include "obs/export.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "obs/metrics.hpp"

namespace st::obs {

MetricsExporter::MetricsExporter(std::string path,
                                 uint64_t interval_ms)
    : path_(std::move(path)),
      intervalMs_(interval_ms < kMinIntervalMs ? kMinIntervalMs
                                               : interval_ms)
{
}

MetricsExporter::~MetricsExporter()
{
    stop();
}

std::unique_ptr<MetricsExporter>
MetricsExporter::fromEnv()
{
    // Raw getenv on purpose: st_obs sits below st_util, so the
    // envString/envUint helpers are not linkable from here (see
    // trace.cpp for the same boundary).
    const char *env = std::getenv("ST_METRICS_EXPORT");
    if (env == nullptr)
        return nullptr;
    std::string spec(env);
    if (spec.empty()) {
        std::cerr << "st: ignoring ST_METRICS_EXPORT='' (empty "
                     "value); export stays off\n";
        MetricsRegistry::instance()
            .counter("env.parse_rejected")
            .add(1);
        return nullptr;
    }
    std::string path = spec;
    uint64_t interval = kDefaultIntervalMs;
    // `path,interval_ms`: the interval is the suffix after the LAST
    // comma iff it is all digits, so comma-bearing paths still work.
    const size_t comma = spec.rfind(',');
    if (comma != std::string::npos && comma + 1 < spec.size()) {
        const std::string tail = spec.substr(comma + 1);
        bool digits = true;
        for (char c : tail)
            digits = digits &&
                     std::isdigit(static_cast<unsigned char>(c));
        if (digits && tail.size() <= 9) {
            path = spec.substr(0, comma);
            interval = std::strtoull(tail.c_str(), nullptr, 10);
        }
    }
    if (path.empty()) {
        std::cerr << "st: ignoring ST_METRICS_EXPORT='" << spec
                  << "' (empty path); export stays off\n";
        MetricsRegistry::instance()
            .counter("env.parse_rejected")
            .add(1);
        return nullptr;
    }
    return std::make_unique<MetricsExporter>(std::move(path),
                                             interval);
}

void
MetricsExporter::start()
{
    std::lock_guard<std::mutex> guard(mutex_);
    if (running_)
        return;
    stopping_ = false;
    running_ = true;
    thread_ = std::thread([this] { loop(); });
}

void
MetricsExporter::stop()
{
    {
        std::lock_guard<std::mutex> guard(mutex_);
        if (!running_)
            return;
        stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable())
        thread_.join();
    {
        std::lock_guard<std::mutex> guard(mutex_);
        running_ = false;
    }
    // Final publish so the artifact reflects the complete run even
    // when the last interval tick never fired.
    writeOnce();
}

bool
publishFile(const std::string &path,
            const std::function<void(std::ostream &)> &render,
            const char *failed_counter)
{
    // Leaked, like MetricsRegistry::instance(): atexit and signal
    // paths may still publish during static destruction.
    static std::mutex *publishing = new std::mutex;
    std::lock_guard<std::mutex> guard(*publishing);
    const std::string tmp = path + ".tmp";
    std::ofstream out(tmp);
    if (out)
        render(out);
    out.close(); // flushes; a failed open, write or close fails here
    if (out && std::rename(tmp.c_str(), path.c_str()) == 0)
        return true;
    std::cerr << "obs: cannot publish " << path << " via " << tmp
              << "\n";
    std::remove(tmp.c_str());
    MetricsRegistry::instance().counter(failed_counter).add(1);
    return false;
}

bool
MetricsExporter::writeOnce()
{
    MetricsRegistry &reg = MetricsRegistry::instance();
    const bool ok = publishFile(
        path_, [&reg](std::ostream &out) { reg.snapshot().writeProm(out); },
        "metrics.export_failed");
    if (ok)
        reg.counter("metrics.exported").add(1);
    return ok;
}

void
MetricsExporter::loop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stopping_) {
        lock.unlock();
        writeOnce();
        lock.lock();
        cv_.wait_for(lock, std::chrono::milliseconds(intervalMs_),
                     [this] { return stopping_; });
    }
}

} // namespace st::obs
