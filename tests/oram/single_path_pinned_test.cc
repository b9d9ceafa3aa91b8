/**
 * @file
 * Pinned runs of the single-path engines (PathORAM, PrORAM, recursive
 * PathORAM, LAORAM's single access): each hashes the adversary's (slot, isWrite) stream of
 * the data tree and the final position map, so any drift in the
 * one-leaf read order, the write-back placements, the dummy drain or
 * the RNG draws fails here. Every run crosses the stash high-water
 * mark, so the drain is part of the pinned stream. The recursive run
 * also pins its meter totals, which cover every position-map level.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/laoram_client.hh"
#include "mem/traffic_meter.hh"
#include "oram/evictor.hh"
#include "oram/path_oram.hh"
#include "oram/pro_oram.hh"
#include "oram/recursive_posmap.hh"
#include "util/rng.hh"

namespace laoram::oram {
namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/** FNV-1a-64 of one 64-bit word, continuing from @p h. */
std::uint64_t
fnv1a(std::uint64_t h, std::uint64_t word)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (word >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Hash every (slot, isWrite) event @p storage reports. */
struct StreamHash
{
    explicit StreamHash(ServerStorage &storage)
    {
        storage.setAccessSink([this](std::uint64_t slot, bool write) {
            value = fnv1a(value, (slot << 1) | (write ? 1 : 0));
            ++events;
        });
    }

    std::uint64_t value = kFnvBasis;
    std::uint64_t events = 0;
};

EngineConfig
smallConfig(std::uint64_t blocks)
{
    EngineConfig cfg;
    cfg.numBlocks = blocks;
    cfg.blockBytes = 64;
    cfg.payloadBytes = 16;
    cfg.seed = 29;
    // Tight buckets and low marks so the dummy drain runs.
    cfg.profile = BucketProfile::uniform(2);
    cfg.stashHighWater = 4;
    cfg.stashLowWater = 1;
    cfg.treetopLevels = 0; // the pinned streams cover the whole path
    return cfg;
}

/** Random accesses; every third one writes its id into the block. */
void
drive(OramEngine &engine, std::uint64_t accesses, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint8_t> data(16, 0);
    for (std::uint64_t i = 0; i < accesses; ++i) {
        const BlockId id = rng.nextBounded(engine.config().numBlocks);
        if (i % 3 == 0) {
            data[0] = static_cast<std::uint8_t>(id);
            engine.writeBlock(id, data);
        } else {
            engine.touch(id);
        }
    }
}

TEST(SinglePathEngines, PathOramStreamAndPosmapArePinned)
{
    PathOram oram(smallConfig(512));
    StreamHash stream(oram.storageForTest());
    drive(oram, 3000, 5);
    oram.storageForTest().setAccessSink(nullptr);

    std::uint64_t posmap = kFnvBasis;
    for (BlockId id = 0; id < oram.config().numBlocks; ++id)
        posmap = fnv1a(posmap, oram.posmapForAudit().get(id));

    EXPECT_EQ(auditTree(oram.pathIoForAudit(), oram.posmapForAudit()),
              "");
    EXPECT_GT(oram.meter().counters().dummyReads, 0u);
    EXPECT_EQ(stream.events, 135680u);
    EXPECT_EQ(stream.value, 0x9fb2bb88ce044995ULL)
        << std::hex << "0x" << stream.value;
    EXPECT_EQ(posmap, 0x1b1772a86be9f320ULL) << std::hex << "0x" << posmap;
}

TEST(SinglePathEngines, ProOramStreamAndPosmapArePinned)
{
    // Short sequential runs inside random traffic make groups fuse,
    // so union merges, pinned members and their release are pinned
    // too.
    ProOramConfig cfg;
    cfg.base = smallConfig(512);
    ProOram oram(cfg);
    StreamHash stream(oram.storageForTest());
    Rng rng(9);
    for (int run = 0; run < 400; ++run) {
        const BlockId start = rng.nextBounded(512 - 8);
        for (BlockId id = start; id < start + 8; ++id)
            oram.touch(id);
        oram.touch(rng.nextBounded(512));
    }
    oram.storageForTest().setAccessSink(nullptr);

    std::uint64_t posmap = kFnvBasis;
    for (BlockId id = 0; id < oram.config().numBlocks; ++id)
        posmap = fnv1a(posmap, oram.posmapForAudit().get(id));

    EXPECT_EQ(auditTree(oram.pathIoForAudit(), oram.posmapForAudit()),
              "");
    EXPECT_GT(oram.totalMerges(), 0u);
    EXPECT_GT(oram.meter().counters().dummyReads, 0u);
    EXPECT_EQ(stream.events, 578300u);
    EXPECT_EQ(stream.value, 0xdf550f10a3b34525ULL)
        << std::hex << "0x" << stream.value;
    EXPECT_EQ(posmap, 0x93ad481637b12d70ULL) << std::hex << "0x" << posmap;
}

TEST(SinglePathEngines, RecursiveStreamAndPosmapArePinned)
{
    RecursiveConfig rcfg;
    rcfg.packing = 8;
    rcfg.directThreshold = 16;
    rcfg.seed = 13;
    RecursivePathOram oram(smallConfig(2048), rcfg);
    ASSERT_EQ(oram.positionMap().oramLevels(), 3u);
    StreamHash stream(oram.storageForTest());
    drive(oram, 3000, 7);
    oram.storageForTest().setAccessSink(nullptr);

    std::uint64_t posmap = kFnvBasis;
    for (BlockId id = 0; id < oram.config().numBlocks; ++id)
        posmap = fnv1a(posmap, oram.positionMap().peek(id));

    EXPECT_EQ(auditTree(oram.pathIoForAudit(),
                        [&](BlockId id) {
                            return oram.positionMap().peek(id);
                        }),
              "");
    EXPECT_GT(oram.meter().counters().dummyReads, 0u);
    EXPECT_EQ(stream.events, 179664u);
    EXPECT_EQ(stream.value, 0x1f9d2c1c50078731ULL)
        << std::hex << "0x" << stream.value;
    EXPECT_EQ(posmap, 0xf4129a144a93689fULL) << std::hex << "0x" << posmap;
    // The meter also charges every map level's path reads, write-backs
    // and dummy drains, which the data tree's stream does not see.
    const mem::TrafficCounters totals = oram.meter().counters();
    EXPECT_EQ(totals.pathReads, 12000u);
    EXPECT_EQ(totals.dummyReads, 743u);
    EXPECT_EQ(totals.blocksRead, 305832u);
    EXPECT_EQ(totals.totalBytes(), 25322496u);
}

/**
 * Drive LAORAM's single access only (no look-ahead windows): random
 * writes, touches and reads; the read-back payloads fold into the
 * returned hash.
 */
std::uint64_t
driveSingleAccesses(core::Laoram &engine, std::uint64_t accesses,
                    std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint8_t> data(16, 0);
    std::vector<std::uint8_t> got;
    std::uint64_t reads = kFnvBasis;
    for (std::uint64_t i = 0; i < accesses; ++i) {
        const BlockId id = rng.nextBounded(engine.config().numBlocks);
        switch (i % 3) {
          case 0:
            data[0] = static_cast<std::uint8_t>(id);
            data[1] = static_cast<std::uint8_t>(i);
            engine.writeBlock(id, data);
            break;
          case 1:
            engine.touch(id);
            break;
          default:
            engine.readBlock(id, got);
            for (std::uint8_t byte : got)
                reads = fnv1a(reads, byte);
            break;
        }
    }
    return reads;
}

TEST(SinglePathEngines, LaoramStreamAndPosmapArePinned)
{
    // The hot cache is a payload-side accelerator: with it on, the
    // stream, the map and the bytes read back are the cache-off run's.
    for (const std::uint64_t cacheBytes : {0u, 64u * 16u}) {
        SCOPED_TRACE(cacheBytes);
        core::LaoramConfig cfg;
        cfg.base = smallConfig(512);
        cfg.cache.capacityBytes = cacheBytes;
        core::Laoram oram(cfg);
        ASSERT_EQ(oram.hotCache() != nullptr, cacheBytes > 0);
        StreamHash stream(oram.storageForTest());
        const std::uint64_t reads = driveSingleAccesses(oram, 3000, 11);
        oram.storageForTest().setAccessSink(nullptr);

        std::uint64_t posmap = kFnvBasis;
        for (BlockId id = 0; id < oram.config().numBlocks; ++id)
            posmap = fnv1a(posmap, oram.posmapForAudit().get(id));

        EXPECT_EQ(auditTree(oram.pathIoForAudit(), oram.posmapForAudit()),
                  "");
        EXPECT_GT(oram.meter().counters().dummyReads, 0u);
        EXPECT_EQ(stream.events, 131040u);
        EXPECT_EQ(stream.value, 0x1ca181070c566ea9ULL) << std::hex << "0x" << stream.value;
        EXPECT_EQ(posmap, 0xdcaf63d65da8f4e4ULL) << std::hex << "0x" << posmap;
        EXPECT_EQ(reads, 0xcbbc0428bc89c348ULL) << std::hex << "0x" << reads;
        if (cacheBytes > 0) {
            EXPECT_GT(oram.hotCache()->stats().hits, 0u);
        }
    }
}

} // namespace
} // namespace laoram::oram
