/**
 * @file
 * PrORAM baseline tests: counter merge/split behaviour, and the
 * paper's degeneration claim.
 */

#include <gtest/gtest.h>

#include <vector>

#include "oram/evictor.hh"
#include "oram/path_oram.hh"
#include "oram/pro_oram.hh"
#include "util/rng.hh"

namespace laoram::oram {
namespace {

ProOramConfig
dynConfig(std::uint64_t blocks, std::uint64_t group)
{
    ProOramConfig cfg;
    cfg.base.numBlocks = blocks;
    cfg.base.blockBytes = 64;
    cfg.base.payloadBytes = 0;
    cfg.base.seed = 37;
    cfg.groupSize = group;
    return cfg;
}

TEST(ProOram, RandomStreamAlmostNeverMerges)
{
    // Paper Fig. 2 discussion: embedding streams have too little
    // history locality for counter-based superblocks.
    ProOram oram(dynConfig(16384, 4));
    Rng rng(4);
    for (int i = 0; i < 4000; ++i)
        oram.touch(rng.nextBounded(16384));
    EXPECT_LE(oram.totalMerges(), 2u);
}

TEST(ProOram, CoAccessedGroupMerges)
{
    // Repeatedly sweep one group: its locality counter must cross the
    // merge threshold quickly.
    ProOram oram(dynConfig(1024, 4));
    for (int round = 0; round < 8; ++round)
        for (BlockId m = 0; m < 4; ++m)
            oram.touch(m);
    EXPECT_GE(oram.totalMerges(), 1u);
    EXPECT_GE(oram.mergedGroups(), 1u);
}

TEST(ProOram, MergedGroupSharesLeaf)
{
    ProOram oram(dynConfig(1024, 4));
    for (int round = 0; round < 8; ++round)
        for (BlockId m = 0; m < 4; ++m)
            oram.touch(m);
    ASSERT_GE(oram.mergedGroups(), 1u);
    const auto &pm = oram.posmapForAudit();
    const Leaf shared = pm.get(0);
    for (BlockId m = 1; m < 4; ++m)
        EXPECT_EQ(pm.get(m), shared);
}

TEST(ProOram, IdleGroupSplitsAgain)
{
    ProOram oram(dynConfig(1024, 4));
    // Merge group 0.
    for (int round = 0; round < 8; ++round)
        for (BlockId m = 0; m < 4; ++m)
            oram.touch(m);
    ASSERT_GE(oram.mergedGroups(), 1u);
    // Then hammer distant blocks so group 0 decays on its next touches.
    Rng rng(5);
    for (int i = 0; i < 600; ++i)
        oram.touch(512 + rng.nextBounded(256));
    // Touch group 0 members sporadically (outside the window). The
    // counter saturates at its cap (8) during the merge phase and
    // decays by one per out-of-window touch, so 12 touches are enough
    // to cross the split threshold (0).
    for (int i = 0; i < 12; ++i) {
        oram.touch(0);
        for (int j = 0; j < 300; ++j)
            oram.touch(512 + rng.nextBounded(256));
    }
    EXPECT_GE(oram.totalSplits(), 1u);
}

TEST(ProOram, DegeneratesToPathOramOnRandomStream)
{
    // The paper's justification for look-ahead: history-based PrORAM
    // collapses to PathORAM on high-entropy traces (§VII-B).
    ProOram pro(dynConfig(16384, 4));
    EngineConfig pcfg = dynConfig(16384, 4).base;
    PathOram path(pcfg);
    std::vector<BlockId> trace;
    Rng rng(6);
    for (int i = 0; i < 3000; ++i)
        trace.push_back(rng.nextBounded(16384));
    pro.runTrace(trace);
    path.runTrace(trace);
    const double pro_bytes =
        static_cast<double>(pro.meter().counters().totalBytes());
    const double path_bytes =
        static_cast<double>(path.meter().counters().totalBytes());
    EXPECT_NEAR(pro_bytes / path_bytes, 1.0, 0.02);
}

TEST(ProOram, AuditAfterMixedWorkload)
{
    ProOram oram(dynConfig(512, 4));
    Rng rng(7);
    for (int i = 0; i < 500; ++i) {
        if (i % 5 == 0)
            for (BlockId m = 8; m < 12; ++m)
                oram.touch(m);
        else
            oram.touch(rng.nextBounded(512));
    }
    EXPECT_EQ(auditTree(oram.pathIoForAudit(), oram.posmapForAudit()),
              "");
}

} // namespace
} // namespace laoram::oram
