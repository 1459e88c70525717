/**
 * @file
 * The load generator: one thread in the ledger process driving up to
 * four loopback TCP sessions with poll(2), speaking only wire bytes.
 *
 * Open loop: volleys are due on a fixed global schedule (the total
 * rate interleaved across sessions) and are sent when due whether or
 * not earlier ones were answered, so a stall shows up as latency of
 * every volley due during it. Closed loop: each session keeps a fixed
 * number of volleys outstanding and sends the next one as soon as an
 * answer frees a slot.
 */

#ifndef PERFLEDGER_LOADGEN_HPP
#define PERFLEDGER_LOADGEN_HPP

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "stats.hpp"

namespace ledger {

/** Shape of one generator run. */
struct LoadSpec
{
    size_t sessions = 4;
    double rateVps = 0;     //!< > 0: open loop at this total rate
    size_t outstanding = 0; //!< closed loop: in flight per session
    double warmupS = 3;
    double measureS = 15;
    uint64_t seed = 1;
    uint64_t keepEvery = 0;    //!< keep payloads of seq % keepEvery == 0
    bool keepSession0 = false; //!< keep every payload of session 0
    uint64_t traceEvery = 0;   //!< client trace span every Nth seq
};

/** What one session saw. */
struct SessionRun
{
    VolleyLog log;
    uint64_t serverId = 0; //!< from `stserve-ok session <id>`
    std::vector<std::pair<uint64_t, std::string>> payloads; //!< kept
    uint64_t delivered = 0;
    uint64_t drops = 0;
    bool ended = false; //!< the `end volleys N drops M` line arrived
    uint64_t endVolleys = 0;
    uint64_t endDrops = 0;
    std::string error; //!< protocol failure, busy or err line
};

/** What the whole run saw. */
struct LoadRun
{
    std::vector<SessionRun> sessions;
    uint64_t windowBeginNs = 0; //!< scheduled window (volleys due in it)
    uint64_t windowEndNs = 0;
    /** When the generator saw each slice boundary of the window
     *  (sliceCount() + 1 ticks), and deliveredInWindow at each. */
    std::vector<uint64_t> tickNs;
    std::vector<uint64_t> tickDelivered;
    uint64_t deliveredInWindow = 0; //!< volley lines read in the window
    uint64_t generatorCpuNs = 0;    //!< this thread's CPU in the window
    bool openLoop = false;

    /** Wall time and deliveries of each slice; @p cpu_at_ticks holds
     *  a CPU reading taken at each tick. */
    std::vector<Slice>
    slices(const std::vector<uint64_t> &cpu_at_ticks) const;

    double
    windowSeconds() const
    {
        return static_cast<double>(tickNs.back() - tickNs.front()) / 1e9;
    }
    /** Interned names of the client trace spans (must outlive the
     *  trace flush, which reads them by pointer). */
    std::deque<std::string> spanNames;

    /** (due or send time, latency ns) of every volley in the window;
     *  +inf for those dropped or never answered. */
    std::vector<TimedSample> windowLatencies() const;

    /** (due, send - due) in ns of every volley in the window. */
    std::vector<TimedSample> windowLateness() const;
};

/**
 * Connect @p spec.sessions sessions to 127.0.0.1:@p port, run the
 * warm-up and the measured window, then send `end` on every session
 * and read until each end line (or a 30 s grace) arrives.
 * @p on_tick(tick, slices) runs at each slice boundary of the window:
 * tick 0 opens it, tick == slices closes it.
 */
LoadRun runLoad(uint16_t port, const LoadSpec &spec,
                const std::function<void(size_t, size_t)> &on_tick);

} // namespace ledger

#endif // PERFLEDGER_LOADGEN_HPP
