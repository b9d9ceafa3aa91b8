/**
 * @file
 * Unit tests for the latency/bandwidth cost model at its fixed
 * testbed constants.
 */

#include <gtest/gtest.h>

#include "mem/cost_model.hh"

namespace laoram::mem {
namespace {

TEST(CostModel, ZeroTrafficStillPaysLatency)
{
    EXPECT_GT(pathReadNs(0, 0), 0.0);
    EXPECT_GT(pathWriteNs(0, 0), 0.0);
}

TEST(CostModel, MonotoneInBytes)
{
    EXPECT_LT(pathReadNs(1024, 4), pathReadNs(4096, 4));
    EXPECT_LT(pathWriteNs(1024, 4), pathWriteNs(4096, 4));
}

TEST(CostModel, MonotoneInBlocks)
{
    EXPECT_LT(pathReadNs(1024, 4), pathReadNs(1024, 40));
}

TEST(CostModel, DummyIsReadPlusWrite)
{
    EXPECT_DOUBLE_EQ(dummyAccessNs(2048, 16),
                     pathReadNs(2048, 16) + pathWriteNs(2048, 16));
}

TEST(CostModel, ReadIncludesLinkRoundTrip)
{
    // Reads pay DRAM latency (60 ns) plus the 1200 ns client link
    // round trip; write-backs pay DRAM latency only.
    EXPECT_DOUBLE_EQ(pathReadNs(0, 0), 1260.0);
    EXPECT_DOUBLE_EQ(pathWriteNs(0, 0), 60.0);
}

TEST(CostModel, BandwidthScalesTransferTerm)
{
    // 1920 B: 100 ns over DDR4 (19.2 GB/s) + 160 ns over the link
    // (12 GB/s), plus 8 ns of client work per block.
    EXPECT_DOUBLE_EQ(pathReadNs(1920, 10), 1600.0);
    EXPECT_DOUBLE_EQ(pathWriteNs(1920, 10), 400.0);
    EXPECT_DOUBLE_EQ(dummyAccessNs(1920, 10), 2000.0);
}

TEST(CostModel, GBpsEqualsBytesPerNs)
{
    // Transfer is bytes / GB/s on each leg: 1920/19.2 + 1920/12 ns.
    EXPECT_DOUBLE_EQ(pathReadNs(1920, 0) - pathReadNs(0, 0), 260.0);
    EXPECT_DOUBLE_EQ(pathWriteNs(1920, 0) - pathWriteNs(0, 0), 260.0);
}

} // namespace
} // namespace laoram::mem
