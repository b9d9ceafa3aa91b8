/**
 * @file
 * Regression tests for ShardedLaoram::aggregateShardReports.
 *
 * The bug being pinned down: concurrent lanes' serve-thread waits
 * (wallFillNs / wallStallNs / wallReorderStallNs) are *elapsed* time
 * that overlaps on the wall clock, so the aggregate must be the
 * slowest lane (max), not the sum — summing used to report more stall
 * time than the whole run took. Thread-*work* fields (wallPrepNs,
 * wallServeNs, wallIoNs) stay summed: distinct threads really did
 * burn that much CPU, and so do simNs and prepThreads.
 */

#include <gtest/gtest.h>

#include "core/sharded_laoram.hh"

namespace laoram::core {
namespace {

ShardReport
syntheticShard(double scale)
{
    ShardReport sr;
    sr.pipeline.windows = static_cast<std::uint64_t>(10 * scale);
    sr.pipeline.simNs = 4000.0 * scale;
    sr.pipeline.wallPrepNs = 900.0 * scale;
    sr.pipeline.wallServeNs = 3800.0 * scale;
    sr.pipeline.wallFillNs = 100.0 * scale;
    sr.pipeline.wallStallNs = 250.0 * scale;
    sr.pipeline.wallReorderStallNs = 60.0 * scale;
    sr.pipeline.wallIoNs = 500.0 * scale;
    sr.pipeline.measuredPrepHiddenFraction = 1.0;
    sr.pipeline.prepThreads = static_cast<std::uint32_t>(scale);
    return sr;
}

TEST(ShardedAggregate, ElapsedWaitsAreMaxOverLanes)
{
    ShardedPipelineReport rep;
    rep.shards.push_back(syntheticShard(1.0));
    rep.shards.push_back(syntheticShard(3.0)); // the slow lane
    rep.shards.push_back(syntheticShard(2.0));

    ShardedLaoram::aggregateShardReports(rep, /*wallTotalNs=*/20000.0);

    // Elapsed-time waits: slowest lane, never the sum. The sums would
    // be 600 / 1500 / 360 — more stall than some lanes even ran.
    EXPECT_DOUBLE_EQ(rep.aggregate.wallFillNs, 300.0);
    EXPECT_DOUBLE_EQ(rep.aggregate.wallStallNs, 750.0);
    EXPECT_DOUBLE_EQ(rep.aggregate.wallReorderStallNs, 180.0);

    // Thread-work fields: genuinely parallel CPU time, summed.
    EXPECT_DOUBLE_EQ(rep.aggregate.wallPrepNs, 900.0 * 6.0);
    EXPECT_DOUBLE_EQ(rep.aggregate.wallServeNs, 3800.0 * 6.0);
    EXPECT_DOUBLE_EQ(rep.aggregate.wallIoNs, 500.0 * 6.0);
    EXPECT_EQ(rep.aggregate.windows, 60u);

    // Simulated clock keeps both views: concurrent (max) and total.
    EXPECT_DOUBLE_EQ(rep.simNs, 12000.0);
    EXPECT_DOUBLE_EQ(rep.aggregate.simNs, 4000.0 * 6.0);

    EXPECT_DOUBLE_EQ(rep.aggregate.wallTotalNs, 20000.0);
    EXPECT_EQ(rep.aggregate.prepThreads, 6u);
}

TEST(ShardedAggregate, StallNeverExceedsRunWallTime)
{
    // The shape of the original bug: many lanes, each mostly stalled.
    // After the fix the aggregate stall is bounded by one lane's run.
    ShardedPipelineReport rep;
    for (int s = 0; s < 16; ++s) {
        ShardReport sr;
        sr.pipeline.wallStallNs = 9000.0;
        sr.pipeline.wallFillNs = 500.0;
        sr.pipeline.wallServeNs = 1000.0;
        rep.shards.push_back(sr);
    }
    const double wallTotalNs = 10000.0;
    ShardedLaoram::aggregateShardReports(rep, wallTotalNs);

    EXPECT_LE(rep.aggregate.wallStallNs + rep.aggregate.wallFillNs,
              wallTotalNs);
    EXPECT_DOUBLE_EQ(rep.aggregate.wallStallNs, 9000.0);
    EXPECT_DOUBLE_EQ(rep.aggregate.wallFillNs, 500.0);
    // Serve work is real per-thread CPU and still sums past wall time.
    EXPECT_DOUBLE_EQ(rep.aggregate.wallServeNs, 16000.0);
}

TEST(ShardedAggregate, HiddenFractionsArePrepWeightedAverages)
{
    ShardedPipelineReport rep;
    ShardReport a;
    a.pipeline.wallPrepNs = 1000.0;
    a.pipeline.measuredPrepHiddenFraction = 0.5;
    ShardReport b;
    b.pipeline.wallPrepNs = 1000.0;
    b.pipeline.measuredPrepHiddenFraction = 1.0;
    rep.shards.push_back(a);
    rep.shards.push_back(b);

    ShardedLaoram::aggregateShardReports(rep, 1.0);

    EXPECT_DOUBLE_EQ(rep.aggregate.measuredPrepHiddenFraction, 0.75);
}

TEST(ShardedAggregate, EmptyShardListLeavesDefaults)
{
    ShardedPipelineReport rep;
    ShardedLaoram::aggregateShardReports(rep, 0.0);
    EXPECT_EQ(rep.aggregate.windows, 0u);
    EXPECT_EQ(rep.aggregate.prepThreads, 0u);
    EXPECT_DOUBLE_EQ(rep.aggregate.wallStallNs, 0.0);
    EXPECT_DOUBLE_EQ(rep.aggregate.measuredPrepHiddenFraction, 0.0);
    EXPECT_DOUBLE_EQ(rep.aggregate.ioServeFraction, 0.0);
}

TEST(ShardedAggregate, EndToEndShardedStallBoundedByWallTime)
{
    // Same invariant on a real concurrent sharded run: aggregate
    // fill+stall (elapsed waits of the slowest lane) cannot exceed
    // the measured end-to-end wall time.
    ShardedLaoramConfig cfg;
    cfg.engine.base.numBlocks = 1 << 10;
    cfg.engine.base.seed = 77;
    cfg.engine.superblockSize = 4;
    cfg.numShards = 4;
    cfg.pipeline.windowAccesses = 128;
    cfg.pipeline.mode = PipelineMode::Concurrent;
    ShardedLaoram engine(cfg);

    std::vector<BlockId> trace;
    trace.reserve(4096);
    for (std::uint64_t i = 0; i < 4096; ++i)
        trace.push_back((i * 2654435761u) % cfg.engine.base.numBlocks);

    const ShardedPipelineReport rep = engine.runTrace(trace);
    ASSERT_GT(rep.aggregate.wallTotalNs, 0.0);
    // Each aggregate wait is one lane's elapsed wait, so it fits in
    // the end-to-end wall time (the summed form could not).
    EXPECT_LE(rep.aggregate.wallFillNs, rep.aggregate.wallTotalNs);
    EXPECT_LE(rep.aggregate.wallStallNs, rep.aggregate.wallTotalNs);
    EXPECT_LE(rep.aggregate.wallReorderStallNs,
              rep.aggregate.wallStallNs + 1.0);
    // One prep thread per concurrent lane.
    EXPECT_EQ(rep.aggregate.prepThreads, 4u);
}

TEST(ShardedAggregate, SimulatedLanesReportNoPrepThreads)
{
    // Simulated lanes run stage 1 inline and spawn no prep thread, so
    // the aggregate must not count the configured pool size per lane.
    ShardedLaoramConfig cfg;
    cfg.engine.base.numBlocks = 1 << 10;
    cfg.engine.base.seed = 78;
    cfg.engine.superblockSize = 4;
    cfg.numShards = 3;
    cfg.pipeline.windowAccesses = 128;
    cfg.pipeline.mode = PipelineMode::Simulated;
    ShardedLaoram engine(cfg);

    std::vector<BlockId> trace;
    trace.reserve(2048);
    for (std::uint64_t i = 0; i < 2048; ++i)
        trace.push_back((i * 2654435761u) % cfg.engine.base.numBlocks);

    const ShardedPipelineReport rep = engine.runTrace(trace);
    ASSERT_EQ(rep.shards.size(), 3u);
    for (const ShardReport &sr : rep.shards)
        EXPECT_EQ(sr.pipeline.prepThreads, 0u);
    EXPECT_EQ(rep.aggregate.prepThreads, 0u);
    EXPECT_GT(rep.aggregate.windows, 0u);
}

} // namespace
} // namespace laoram::core
