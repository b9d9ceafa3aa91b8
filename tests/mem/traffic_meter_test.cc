/**
 * @file
 * Unit tests for traffic accounting + simulated clock.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "mem/traffic_meter.hh"

namespace laoram::mem {
namespace {

TEST(SimClock, AdvancesAndConverts)
{
    SimClock clk;
    EXPECT_EQ(clk.picoseconds(), 0u);
    clk.advanceNs(1.5);
    EXPECT_EQ(clk.picoseconds(), 1500u);
    clk.advancePs(500);
    EXPECT_DOUBLE_EQ(clk.nanoseconds(), 2.0);
    EXPECT_DOUBLE_EQ(clk.microseconds(), 0.002);
    clk.reset();
    EXPECT_EQ(clk.picoseconds(), 0u);
}

TEST(SimClock, FractionalAccumulationIsExact)
{
    SimClock clk;
    for (int i = 0; i < 1000; ++i)
        clk.advanceNs(0.001); // 1 ps each
    EXPECT_EQ(clk.picoseconds(), 1000u);
}

TEST(TrafficMeter, PathReadAccounting)
{
    TrafficMeter m;
    m.recordPathRead(1024, 8);
    m.recordPathRead(1024, 8);
    EXPECT_EQ(m.counters().pathReads, 2u);
    EXPECT_EQ(m.counters().blocksRead, 16u);
    EXPECT_EQ(m.counters().bytesRead, 2048u);
    EXPECT_EQ(m.counters().bytesWritten, 0u);
    EXPECT_GT(m.clock().nanoseconds(), 0.0);
}

TEST(TrafficMeter, DummyAccountsBothDirections)
{
    TrafficMeter m;
    m.recordDummyAccess(100, 4);
    EXPECT_EQ(m.counters().dummyReads, 1u);
    EXPECT_EQ(m.counters().bytesRead, 100u);
    EXPECT_EQ(m.counters().bytesWritten, 100u);
    EXPECT_EQ(m.counters().totalBytes(), 200u);
}

TEST(TrafficMeter, PerAccessRatios)
{
    TrafficMeter m;
    m.recordLogicalAccesses(4);
    m.recordDummyAccess(10, 1);
    m.recordPathRead(10, 1);
    EXPECT_DOUBLE_EQ(m.counters().dummyReadsPerAccess(), 0.25);
    EXPECT_DOUBLE_EQ(m.counters().pathReadsPerAccess(), 0.25);
}

TEST(TrafficMeter, RatiosWithZeroAccesses)
{
    TrafficMeter m;
    EXPECT_DOUBLE_EQ(m.counters().dummyReadsPerAccess(), 0.0);
}

TEST(TrafficMeter, StashPeakIsHighWater)
{
    TrafficMeter m;
    m.observeStashSize(10);
    m.observeStashSize(4);
    m.observeStashSize(25);
    m.observeStashSize(7);
    EXPECT_EQ(m.counters().stashPeak, 25u);
}

TEST(TrafficMeter, SinceComputesInterval)
{
    TrafficMeter m;
    m.recordPathRead(100, 2);
    const TrafficCounters start = m.counters();
    m.recordPathRead(100, 2);
    m.recordPathWrite(50, 1);
    const TrafficCounters d = m.counters().since(start);
    EXPECT_EQ(d.pathReads, 1u);
    EXPECT_EQ(d.pathWrites, 1u);
    EXPECT_EQ(d.bytesRead, 100u);
    EXPECT_EQ(d.bytesWritten, 50u);
}

TEST(TrafficMeter, ReshuffleBypassesPathCounters)
{
    TrafficMeter m;
    m.recordReshuffle(64, 2, 256, 8);
    EXPECT_EQ(m.counters().reshuffles, 1u);
    EXPECT_EQ(m.counters().pathReads, 0u);
    EXPECT_EQ(m.counters().pathWrites, 0u);
    EXPECT_EQ(m.counters().blocksRead, 2u);
    EXPECT_EQ(m.counters().blocksWritten, 8u);
}

TEST(TrafficMeter, ResetClearsEverything)
{
    TrafficMeter m;
    m.recordPathRead(100, 2);
    m.observeStashSize(99);
    m.reset();
    EXPECT_EQ(m.counters().pathReads, 0u);
    EXPECT_EQ(m.counters().stashPeak, 0u);
    EXPECT_EQ(m.clock().picoseconds(), 0u);
}

TEST(TrafficMeter, SummaryMentionsLabel)
{
    TrafficMeter m;
    std::ostringstream os;
    m.printSummary(os, "testlabel");
    EXPECT_NE(os.str().find("testlabel"), std::string::npos);
}

} // namespace
} // namespace laoram::mem
