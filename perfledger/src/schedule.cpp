#include "schedule.hpp"

#include <algorithm>

namespace ledger {

namespace {

/** splitmix64 finalizer: the repo-wide cheap deterministic mixer. */
uint64_t
mix64(uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

std::vector<WireEvent>
volleyEvents(uint64_t seed, uint32_t session, uint64_t k)
{
    uint64_t state = mix64(mix64(mix64(seed) ^ session) ^ k);
    const size_t count = 1 + state % 3;
    std::vector<WireEvent> events(count);
    for (WireEvent &e : events) {
        state = mix64(state);
        e.time = k * kWindow + state % kWindow;
        e.address = static_cast<uint32_t>((state >> 32) % kAddresses);
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const WireEvent &a, const WireEvent &b) {
                         return a.time < b.time;
                     });
    return events;
}

std::string
sessionHello()
{
    return "stserve 1\naddresses " + std::to_string(kAddresses) +
           " window " + std::to_string(kWindow) + "\n";
}

std::string
volleyWire(uint64_t seed, uint32_t session, uint64_t k)
{
    std::string wire;
    for (const WireEvent &e : volleyEvents(seed, session, k)) {
        wire += std::to_string(e.time);
        wire += ' ';
        wire += std::to_string(e.address);
        wire += '\n';
    }
    wire += "flush\n";
    return wire;
}

st::Volley
volleyInput(uint64_t seed, uint32_t session, uint64_t k)
{
    st::Volley volley(kAddresses, st::INF);
    for (const WireEvent &e : volleyEvents(seed, session, k)) {
        st::Time &slot = volley[e.address];
        if (slot.isInf())
            slot = st::Time(e.time - k * kWindow);
    }
    return volley;
}

} // namespace ledger
