/**
 * @file
 * The seeded stimulus every serve workload sends: per session, one
 * 16-address window of 1-3 AER events per volley, sealed by `flush`,
 * in the `stserve 1` wire grammar (serve/session.hpp) that
 * stnet_client speaks.
 *
 * Volley k of session s is a pure function of (seed, s, k), so the
 * correctness checks regenerate any volley from its seq without
 * keeping the stream, and the same seed always puts the same bytes on
 * the wire.
 */

#ifndef PERFLEDGER_SCHEDULE_HPP
#define PERFLEDGER_SCHEDULE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "tnn/volley.hpp"

namespace ledger {

/** Volley width: the demo models' input count. */
inline constexpr uint32_t kAddresses = 16;

/** AER window per volley (time units). */
inline constexpr uint64_t kWindow = 16;

/** One AER event: absolute time and address. */
struct WireEvent
{
    uint64_t time = 0;
    uint32_t address = 0;
};

/** The events of volley @p k of session @p session, in time order. */
std::vector<WireEvent> volleyEvents(uint64_t seed, uint32_t session,
                                    uint64_t k);

/** The session preamble: hello plus the address/window config. */
std::string sessionHello();

/** Wire bytes of volley @p k: its event lines, then `flush`. */
std::string volleyWire(uint64_t seed, uint32_t session, uint64_t k);

/**
 * The volley the server frames from volleyWire(): the window-relative
 * time of each address's first event, inf where none.
 */
st::Volley volleyInput(uint64_t seed, uint32_t session, uint64_t k);

} // namespace ledger

#endif // PERFLEDGER_SCHEDULE_HPP
