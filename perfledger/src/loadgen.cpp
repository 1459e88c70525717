#include "loadgen.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <string_view>

#include "obs/trace.hpp"
#include "proc.hpp"
#include "schedule.hpp"

namespace ledger {

namespace {

/** Grace after the window for every session's end line. */
constexpr uint64_t kEndGraceNs = 30'000'000'000ULL;

struct Conn
{
    int fd = -1;
    std::string in;
    std::string out;
    size_t outOff = 0;
    uint64_t nextK = 0;     //!< next volley to send
    uint64_t freedNs = 0;   //!< closed loop: when the last slot freed
    bool endSent = false;
    bool closed = false;    //!< EOF or fatal error
};

uint64_t
parseUint(std::string_view s)
{
    return std::strtoull(std::string(s).c_str(), nullptr, 10);
}

/** Word @p i (0-based) of a space-separated line. */
std::string_view
word(std::string_view line, size_t i)
{
    size_t start = 0;
    while (true) {
        const size_t end = line.find(' ', start);
        if (i == 0)
            return line.substr(start, end == std::string_view::npos
                                          ? std::string_view::npos
                                          : end - start);
        if (end == std::string_view::npos)
            return {};
        start = end + 1;
        --i;
    }
}

class Generator
{
  public:
    Generator(uint16_t port, const LoadSpec &spec) : spec_(spec)
    {
        run_.openLoop = spec.rateVps > 0;
        run_.sessions.resize(spec.sessions);
        conns_.resize(spec.sessions);
        for (Conn &c : conns_) {
            c.fd = dialLoopback(port);
            if (c.fd < 0)
                throw std::runtime_error("cannot connect to port " +
                                         std::to_string(port));
            fcntl(c.fd, F_SETFL, fcntl(c.fd, F_GETFL) | O_NONBLOCK);
            c.out = sessionHello();
        }
    }

    ~Generator()
    {
        for (Conn &c : conns_)
            if (c.fd >= 0)
                close(c.fd);
    }

    Generator(const Generator &) = delete;
    Generator &operator=(const Generator &) = delete;

    LoadRun
    run(const std::function<void(size_t, size_t)> &on_tick)
    {
        const uint64_t start = nowNs() + 1'000'000;
        run_.windowBeginNs =
            start + static_cast<uint64_t>(spec_.warmupS * 1e9);
        run_.windowEndNs =
            run_.windowBeginNs + static_cast<uint64_t>(spec_.measureS * 1e9);
        start_ = start;
        slices_ = sliceCount(spec_.measureS);
        const uint64_t hard_stop = run_.windowEndNs + kEndGraceNs;
        uint64_t cpu_begin = 0;
        for (Conn &c : conns_)
            c.freedNs = start;

        while (true) {
            uint64_t now = nowNs();
            const size_t tick = run_.tickNs.size();
            if (tick <= slices_ && now >= tickDueNs(tick)) {
                run_.tickNs.push_back(now);
                run_.tickDelivered.push_back(run_.deliveredInWindow);
                if (tick == 0)
                    cpu_begin = threadCpuNs();
                if (tick == slices_)
                    run_.generatorCpuNs = threadCpuNs() - cpu_begin;
                measuring_ = tick < slices_;
                on_tick(tick, slices_);
            }
            now = nowNs();
            for (size_t s = 0; s < conns_.size(); ++s)
                schedule(s, now);
            flushWrites();
            if (allDone() || now > hard_stop)
                break;
            waitForIo(nextWakeNs(now) - now);
        }
        return std::move(run_);
    }

  private:
    /** When slice boundary @p tick of the window falls due. */
    uint64_t
    tickDueNs(size_t tick) const
    {
        return run_.windowBeginNs +
               (run_.windowEndNs - run_.windowBeginNs) * tick / slices_;
    }

    /** Due time of volley @p k of session @p s (open loop). */
    uint64_t
    dueNs(size_t s, uint64_t k) const
    {
        const double period = static_cast<double>(conns_.size()) /
                              spec_.rateVps * 1e9;
        const double phase = period * static_cast<double>(s) /
                             static_cast<double>(conns_.size());
        return start_ + static_cast<uint64_t>(
                            phase + period * static_cast<double>(k));
    }

    void
    send(size_t s, uint64_t due, uint64_t now)
    {
        Conn &c = conns_[s];
        c.out += volleyWire(spec_.seed, static_cast<uint32_t>(s), c.nextK);
        run_.sessions[s].log.sent(c.nextK, due, now);
        ++c.nextK;
    }

    void
    schedule(size_t s, uint64_t now)
    {
        Conn &c = conns_[s];
        SessionRun &r = run_.sessions[s];
        if (c.closed)
            return;
        if (now >= run_.windowEndNs) {
            if (!c.endSent) {
                c.out += "end\n";
                c.endSent = true;
            }
            return;
        }
        if (run_.openLoop) {
            for (uint64_t due; (due = dueNs(s, c.nextK)) <= now;)
                send(s, due, now);
        } else {
            while (c.nextK - r.delivered - r.drops < spec_.outstanding)
                send(s, c.freedNs, now);
        }
    }

    void
    flushWrites()
    {
        for (Conn &c : conns_) {
            while (!c.closed && c.outOff < c.out.size()) {
                const ssize_t n = write(c.fd, c.out.data() + c.outOff,
                                        c.out.size() - c.outOff);
                if (n > 0) {
                    c.outOff += static_cast<size_t>(n);
                } else if (n < 0 && errno == EINTR) {
                    continue;
                } else {
                    if (n < 0 && errno != EAGAIN)
                        fail(c, "write failed");
                    break;
                }
            }
            if (c.outOff == c.out.size()) {
                c.out.clear();
                c.outOff = 0;
            }
        }
    }

    bool
    allDone() const
    {
        for (size_t s = 0; s < conns_.size(); ++s)
            if (!conns_[s].closed && !run_.sessions[s].ended)
                return false;
        return true;
    }

    uint64_t
    nextWakeNs(uint64_t now) const
    {
        uint64_t wake = now + 50'000'000;
        if (run_.tickNs.size() <= slices_)
            wake = std::min(wake, tickDueNs(run_.tickNs.size()));
        if (run_.openLoop && now < run_.windowEndNs)
            for (size_t s = 0; s < conns_.size(); ++s)
                if (!conns_[s].closed)
                    wake = std::min(wake, dueNs(s, conns_[s].nextK));
        return std::max(wake, now);
    }

    void
    waitForIo(uint64_t timeout_ns)
    {
        std::vector<struct pollfd> fds;
        for (const Conn &c : conns_)
            fds.push_back(
                {c.closed ? -1 : c.fd,
                 static_cast<short>(
                     POLLIN | (c.out.size() > c.outOff ? POLLOUT : 0)),
                 0});
        struct timespec ts = {
            static_cast<time_t>(timeout_ns / 1000000000ULL),
            static_cast<long>(timeout_ns % 1000000000ULL)};
        if (ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0)
            return;
        for (size_t s = 0; s < conns_.size(); ++s)
            if (fds[s].revents & (POLLIN | POLLHUP | POLLERR))
                readSession(s);
    }

    void
    readSession(size_t s)
    {
        Conn &c = conns_[s];
        char chunk[65536];
        while (!c.closed) {
            const ssize_t n = read(c.fd, chunk, sizeof(chunk));
            if (n < 0 && errno == EINTR)
                continue;
            if (n < 0 && errno == EAGAIN)
                return;
            if (n <= 0) {
                if (!run_.sessions[s].ended)
                    fail(c, "connection closed before the end line");
                c.closed = true;
                return;
            }
            const uint64_t at = nowNs();
            c.in.append(chunk, static_cast<size_t>(n));
            size_t start = 0;
            for (size_t nl; (nl = c.in.find('\n', start)) !=
                            std::string::npos;
                 start = nl + 1)
                onLine(s, std::string_view(c.in).substr(start, nl - start),
                       at);
            c.in.erase(0, start);
        }
    }

    void
    onLine(size_t s, std::string_view line, uint64_t at)
    {
        SessionRun &r = run_.sessions[s];
        Conn &c = conns_[s];
        const std::string_view tag = word(line, 0);
        if (tag == "volley" || tag == "drop") {
            const bool delivered = tag == "volley";
            const uint64_t seq = parseUint(word(line, 1));
            if (!r.log.answered(seq, at, delivered)) {
                fail(c, "answer for unknown or answered seq " +
                            std::to_string(seq));
                return;
            }
            c.freedNs = at;
            if (!delivered) {
                ++r.drops;
                return;
            }
            ++r.delivered;
            if (measuring_)
                ++run_.deliveredInWindow;
            if ((spec_.keepEvery && seq % spec_.keepEvery == 0) ||
                (spec_.keepSession0 && s == 0)) {
                const size_t payload = line.find(' ', 7);
                r.payloads.emplace_back(
                    seq, std::string(line.substr(payload + 1)));
            }
            if (spec_.traceEvery && seq % spec_.traceEvery == 0)
                traceVolley(s, seq, at);
        } else if (tag == "stserve-ok") {
            r.serverId = parseUint(word(line, 2));
        } else if (tag == "end") {
            r.ended = true;
            r.endVolleys = parseUint(word(line, 2));
            r.endDrops = parseUint(word(line, 4));
        } else if (tag == "busy" || tag == "err") {
            fail(c, std::string(line));
        }
        // note lines carry nothing the ledger counts.
    }

    /** Span named by the server's session id, as the model spans are. */
    void
    traceVolley(size_t s, uint64_t seq, uint64_t at)
    {
        const VolleyLog::Entry &e = run_.sessions[s].log.at(seq);
        run_.spanNames.push_back("client.volley s" +
                                 std::to_string(run_.sessions[s].serverId) +
                                 "#" + std::to_string(seq));
        st::obs::TraceSession::instance().record(
            run_.spanNames.back().c_str(),
            run_.openLoop ? e.dueNs : e.sendNs, at);
    }

    void
    fail(Conn &c, const std::string &why)
    {
        SessionRun &r = run_.sessions[&c - conns_.data()];
        if (r.error.empty())
            r.error = why;
        if (why.rfind("err", 0) != 0)
            c.closed = true; // err: the server still sends an end line
    }

    LoadSpec spec_;
    LoadRun run_;
    std::vector<Conn> conns_;
    uint64_t start_ = 0;
    size_t slices_ = 1;
    bool measuring_ = false; //!< between the first and last tick
};

} // namespace

std::vector<Slice>
LoadRun::slices(const std::vector<uint64_t> &cpu_at_ticks) const
{
    std::vector<Slice> out;
    for (size_t i = 1; i < tickNs.size() && i < cpu_at_ticks.size(); ++i)
        out.push_back(
            {static_cast<double>(tickNs[i] - tickNs[i - 1]),
             static_cast<double>(tickDelivered[i] - tickDelivered[i - 1]),
             static_cast<double>(cpu_at_ticks[i] - cpu_at_ticks[i - 1])});
    return out;
}

std::vector<TimedSample>
LoadRun::windowLatencies() const
{
    std::vector<TimedSample> out;
    for (const SessionRun &r : sessions)
        for (uint64_t seq = 0; seq < r.log.size(); ++seq) {
            const VolleyLog::Entry &e = r.log.at(seq);
            const uint64_t at = openLoop ? e.dueNs : e.sendNs;
            if (at >= windowBeginNs && at < windowEndNs)
                out.push_back({at, r.log.latencyNs(seq, openLoop)});
        }
    return out;
}

std::vector<TimedSample>
LoadRun::windowLateness() const
{
    std::vector<TimedSample> out;
    for (const SessionRun &r : sessions)
        for (uint64_t seq = 0; seq < r.log.size(); ++seq) {
            const VolleyLog::Entry &e = r.log.at(seq);
            if (e.dueNs >= windowBeginNs && e.dueNs < windowEndNs)
                out.push_back(
                    {e.dueNs, static_cast<double>(e.sendNs - e.dueNs)});
        }
    return out;
}

LoadRun
runLoad(uint16_t port, const LoadSpec &spec,
        const std::function<void(size_t, size_t)> &on_tick)
{
    // Sleep to the nanosecond the schedule asks for, not the default
    // 50 us timer slack.
    prctl(PR_SET_TIMERSLACK, 1UL);
    Generator gen(port, spec);
    return gen.run(on_tick);
}

} // namespace ledger
