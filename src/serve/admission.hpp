/**
 * @file
 * Admission control: shed load at the door, never in the middle.
 *
 * The degradation contract (DESIGN.md Sec. 10) is reject-new before
 * degrade-old: once maxSessions streams are being served, a new
 * connection is refused with a machine-usable retry-after hint, and
 * the sessions already admitted keep their full service level. A
 * client that hammers the door anyway earns exponentially growing
 * hints (per client key), which decay back to the base once it backs
 * off — a polite client is forgiven quickly, a tight reconnect loop is
 * priced out. Every refusal ticks serve.shed.sessions so shed load is
 * fully accounted.
 */

#ifndef ST_SERVE_ADMISSION_HPP
#define ST_SERVE_ADMISSION_HPP

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "serve/config.hpp"

namespace st::serve {

/** Session admission + per-client reject backoff. */
class AdmissionController
{
  public:
    explicit AdmissionController(const ServeConfig &config);

    /** Outcome of one admission attempt. */
    struct Decision
    {
        bool admit = false;
        /** When refused: suggested client wait before retrying. */
        uint64_t retryAfterMs = 0;
        /** When refused: "capacity" or "draining". */
        const char *reason = "";
    };

    /**
     * Decide admission for a connection from @p client_key (peer
     * address, or "pipe"). @p active is the current session count;
     * @p draining refuses everything (shutdown in progress).
     */
    Decision tryAdmit(const std::string &client_key, uint64_t now_ms,
                      uint64_t active, bool draining);

    /**
     * Decay offender penalties: halve every offenderDecayMs since the
     * last reject; fully healed entries are dropped. Called
     * periodically by the server's housekeeping tick.
     */
    void decay(uint64_t now_ms);

    /** Tracked offender entries (for tests / health). */
    size_t offenderCount() const;

  private:
    struct Offender
    {
        uint64_t penaltyMs;
        uint64_t lastRejectMs;
    };

    ServeConfig config_;
    mutable std::mutex mutex_;
    std::unordered_map<std::string, Offender> offenders_;
};

} // namespace st::serve

#endif // ST_SERVE_ADMISSION_HPP
