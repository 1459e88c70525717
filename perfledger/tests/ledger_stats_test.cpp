/**
 * @file
 * Unit tests for the ledger's own statistics and stimulus schedule.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "schedule.hpp"
#include "stats.hpp"

using namespace ledger;

TEST(LedgerStats, IntervalP99MedianOnClosedFormSeries)
{
    // Interval i (0..9) holds the values (i + 1) * {1..100}, so its
    // nearest-rank p99 is 99 * (i + 1) (p90: 90 * (i + 1)); the median
    // over the ten intervals is the mean of intervals 4 and 5.
    std::vector<TimedSample> samples;
    for (uint64_t i = 0; i < 10; ++i)
        for (uint64_t v = 1; v <= 100; ++v)
            samples.push_back({1000 + i * 100 + v - 1,
                               static_cast<double>((i + 1) * v)});
    samples.push_back({999, 1e9});  // before the span: ignored
    samples.push_back({2000, 1e9}); // after it: ignored
    const IntervalTail tail =
        intervalPercentileMedian(samples, 0.99, 1000, 100, 10);
    EXPECT_DOUBLE_EQ(tail.median, 99 * 5.5);
    ASSERT_EQ(tail.counts.size(), 10u);
    for (size_t c : tail.counts)
        EXPECT_EQ(c, 100u);
    EXPECT_DOUBLE_EQ(
        intervalPercentileMedian(samples, 0.90, 1000, 100, 10).median,
        90 * 5.5);
}

TEST(LedgerStats, DropsCountAsInfinity)
{
    std::vector<double> values(98, 1.0);
    values.push_back(kNever);
    values.push_back(kNever);
    EXPECT_EQ(percentile(values, 0.50), 1.0);
    EXPECT_EQ(percentile(values, 0.98), 1.0);
    EXPECT_EQ(percentile(values, 0.99), kNever);

    // An interval whose every volley was dropped has an infinite p99,
    // and enough such intervals make the median infinite too.
    std::vector<TimedSample> samples;
    for (uint64_t i = 0; i < 3; ++i)
        for (uint64_t v = 0; v < 10; ++v)
            samples.push_back({i * 10 + v, i == 0 ? 1.0 : kNever});
    EXPECT_EQ(intervalPercentileMedian(samples, 0.99, 0, 10, 3).median,
              kNever);
}

TEST(LedgerStats, DueTimeLookupWithDropsOutOfSeqOrder)
{
    VolleyLog log;
    for (uint64_t seq = 0; seq < 6; ++seq)
        log.sent(seq, 100 * seq, 100 * seq + 7);
    // Shed notices overtake deliveries: drop 4 and 2 arrive before the
    // deliveries of 0, 1 and 3, and 5 is never answered.
    EXPECT_TRUE(log.answered(4, 900, false));
    EXPECT_TRUE(log.answered(0, 950, true));
    EXPECT_TRUE(log.answered(2, 960, false));
    EXPECT_TRUE(log.answered(3, 1000, true));
    EXPECT_TRUE(log.answered(1, 1010, true));
    EXPECT_FALSE(log.answered(4, 1100, true)); // answered twice
    EXPECT_FALSE(log.answered(6, 1100, true)); // never sent

    EXPECT_EQ(log.latencyNs(0, true), 950.0);
    EXPECT_EQ(log.latencyNs(1, true), 910.0);
    EXPECT_EQ(log.latencyNs(3, true), 700.0);
    EXPECT_EQ(log.latencyNs(3, false), 693.0); // from the send time
    EXPECT_EQ(log.latencyNs(2, true), kNever);
    EXPECT_EQ(log.latencyNs(4, true), kNever);
    EXPECT_EQ(log.latencyNs(5, true), kNever);
}

TEST(LedgerSchedule, SameSeedSameWireBytesOtherSeedDifferent)
{
    const auto stream = [](uint64_t seed) {
        std::string wire = sessionHello();
        for (uint32_t s = 0; s < 4; ++s)
            for (uint64_t k = 0; k < 256; ++k)
                wire += volleyWire(seed, s, k);
        return wire;
    };
    EXPECT_EQ(stream(7), stream(7));
    EXPECT_NE(stream(7), stream(8));
    EXPECT_NE(volleyWire(7, 0, 5), volleyWire(7, 1, 5));
}

TEST(LedgerSchedule, WindowsMatchTheWireGrammar)
{
    for (uint64_t k = 0; k < 512; ++k) {
        const std::vector<WireEvent> events = volleyEvents(3, 1, k);
        ASSERT_GE(events.size(), 1u);
        ASSERT_LE(events.size(), 3u);
        for (size_t i = 0; i < events.size(); ++i) {
            EXPECT_GE(events[i].time, k * kWindow);
            EXPECT_LT(events[i].time, (k + 1) * kWindow);
            EXPECT_LT(events[i].address, kAddresses);
            if (i > 0) {
                EXPECT_LE(events[i - 1].time, events[i].time);
            }
        }
        // The framed volley keeps each address's first event.
        const st::Volley v = volleyInput(3, 1, k);
        for (const WireEvent &e : events)
            EXPECT_LE(v[e.address].value(), e.time - k * kWindow);
    }
}
