/**
 * @file
 * Prefetch-retention (stash pinning) tests: PrORAM keeps the fetched
 * members of a fused group client-side until their predicted
 * accesses arrive, then releases them; capacity pressure overrides
 * retention, and a split withdraws the prediction.
 */

#include <gtest/gtest.h>

#include "oram/pro_oram.hh"
#include "oram/stash.hh"
#include "util/rng.hh"

namespace laoram::oram {
namespace {

TEST(StashPinning, UnpinAllClearsEveryPin)
{
    Stash s;
    s.remap(1, 0, 0).pinned = true;
    s.remap(2, 0, 0).pinned = true;
    s.remap(3, 0, 0);
    s.unpinAll();
    for (const auto &[id, entry] : s)
        EXPECT_FALSE(entry.pinned);
}

ProOramConfig
cfg(std::uint64_t blocks, std::uint64_t group)
{
    ProOramConfig c;
    c.base.numBlocks = blocks;
    c.base.blockBytes = 64;
    c.base.seed = 91;
    c.groupSize = group;
    return c;
}

/** Stashed members of @p oram's group 0 (block ids [0, group)). */
std::uint64_t
stashedMembers(const ProOram &oram, std::uint64_t group)
{
    std::uint64_t n = 0;
    for (BlockId m = 0; m < group; ++m)
        n += oram.stashForAudit().contains(m) ? 1 : 0;
    return n;
}

/**
 * Fuse group 0 of @p oram and leave none of its members in the
 * stash, so the next access to a member fetches the whole group.
 * Co-access fuses it; the other members' accesses then consume their
 * pins; traffic outside group 0 evicts them to the tree without
 * touching the group's counter.
 */
void
fuseGroupZero(ProOram &oram, std::uint64_t group)
{
    for (int i = 0; i < 8 && oram.mergedGroups() == 0; ++i)
        oram.touch(0);
    ASSERT_EQ(oram.mergedGroups(), 1u);
    for (BlockId m = 1; m < group; ++m)
        oram.touch(m);
    Rng rng(13);
    const std::uint64_t blocks = oram.config().numBlocks;
    for (int i = 0; i < 1000 && stashedMembers(oram, group) > 0; ++i)
        oram.touch(group + rng.nextBounded(blocks - group));
    ASSERT_EQ(stashedMembers(oram, group), 0u);
}

TEST(Retention, GroupFetchPinsSiblings)
{
    ProOram oram(cfg(64, 4));
    ASSERT_NO_FATAL_FAILURE(fuseGroupZero(oram, 4));
    oram.touch(0);
    // Blocks 1..3 were co-fetched and must be resident and pinned.
    for (BlockId m = 1; m < 4; ++m) {
        const StashEntry *e = oram.stashForAudit().find(m);
        ASSERT_NE(e, nullptr) << "sibling " << m << " not retained";
        EXPECT_TRUE(e->pinned);
    }
}

TEST(Retention, SiblingAccessesAreFree)
{
    ProOram oram(cfg(64, 4));
    ASSERT_NO_FATAL_FAILURE(fuseGroupZero(oram, 4));
    oram.touch(0);
    const auto before = oram.meter().counters();
    oram.touch(1);
    oram.touch(2);
    oram.touch(3);
    const auto d = oram.meter().counters().since(before);
    EXPECT_EQ(d.pathReads, 0u);
    EXPECT_EQ(d.stashHits, 3u);
    EXPECT_EQ(d.logicalAccesses, 3u);
    // All pins released after their accesses arrived.
    for (BlockId m = 0; m < 4; ++m) {
        if (const StashEntry *e = oram.stashForAudit().find(m)) {
            EXPECT_FALSE(e->pinned) << "block " << m;
        }
    }
}

TEST(Retention, FourAccessesOnePathRead)
{
    // The PrORAM promise: n accesses to a formed superblock need n/S
    // path reads.
    ProOram oram(cfg(64, 4));
    ASSERT_NO_FATAL_FAILURE(fuseGroupZero(oram, 4));
    const auto before = oram.meter().counters();
    for (BlockId m = 0; m < 4; ++m)
        oram.touch(m);
    const auto d = oram.meter().counters().since(before);
    EXPECT_EQ(d.pathReads, 1u);
    EXPECT_EQ(d.logicalAccesses, 4u);
}

TEST(Retention, CapacityPressureDropsPins)
{
    // Tiny high-water mark: fusing groups without consuming their
    // members must trigger eviction, which unpins and drains.
    ProOramConfig c = cfg(512, 8);
    c.base.stashHighWater = 12;
    c.base.stashLowWater = 4;
    ProOram oram(c);
    ASSERT_NO_FATAL_FAILURE(fuseGroupZero(oram, 8));
    // Five co-accesses fuse each later group too, pinning its 7
    // siblings.
    for (BlockId base = 8; base < 512; base += 8) {
        for (int i = 0; i < 5; ++i)
            oram.touch(base);
        // The stash cannot stay above the drain target + one batch
        // worth of pins.
        ASSERT_LT(oram.stashSize(), 12u + 8u) << "group " << base / 8;
    }
    EXPECT_EQ(oram.mergedGroups(), 64u);
    EXPECT_GT(oram.meter().counters().dummyReads, 0u);
}

TEST(Retention, ProOramSplitReleasesPins)
{
    ProOramConfig pc;
    pc.base.numBlocks = 256;
    pc.base.blockBytes = 64;
    pc.base.seed = 17;
    pc.groupSize = 4;
    ProOram oram(pc);

    // Merge group 0, leaving siblings pinned after one access.
    for (int round = 0; round < 8; ++round)
        for (BlockId m = 0; m < 4; ++m)
            oram.touch(m);
    ASSERT_GE(oram.mergedGroups(), 1u);

    // Decay the counter until split; pins must be gone afterwards.
    Rng rng(5);
    for (int i = 0; i < 12 && oram.totalSplits() == 0; ++i) {
        oram.touch(0);
        for (int j = 0; j < 300; ++j)
            oram.touch(128 + rng.nextBounded(64));
    }
    ASSERT_GE(oram.totalSplits(), 1u);
    for (BlockId m = 0; m < 4; ++m) {
        if (const StashEntry *e = oram.stashForAudit().find(m)) {
            EXPECT_FALSE(e->pinned);
        }
    }
}

TEST(Retention, PinnedBlocksStillReadCorrectly)
{
    ProOramConfig c = cfg(64, 4);
    c.base.payloadBytes = 8;
    ProOram oram(c);
    ASSERT_NO_FATAL_FAILURE(fuseGroupZero(oram, 4));
    std::vector<std::uint8_t> data(8, 0x5A);
    oram.writeBlock(0, data); // fetches + pins 1..3
    const StashEntry *sibling = oram.stashForAudit().find(1);
    ASSERT_NE(sibling, nullptr);
    ASSERT_TRUE(sibling->pinned);
    std::vector<std::uint8_t> out;
    oram.readBlock(1, out); // pinned sibling, zero-initialised
    EXPECT_EQ(out, std::vector<std::uint8_t>(8, 0));
    oram.readBlock(0, out);
    EXPECT_EQ(out, data);
}

} // namespace
} // namespace laoram::oram
