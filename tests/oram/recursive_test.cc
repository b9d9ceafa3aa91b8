/**
 * @file
 * Recursive position-map tests: chain construction, oblivious
 * lookup-and-update correctness against a shadow map, traffic
 * accounting, and the RecursivePathOram engine (including its refusal
 * to serve a reopened tree).
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "../common/scratch_dir.hh"
#include "mem/traffic_meter.hh"
#include "oram/path_oram.hh"
#include "oram/recursive_posmap.hh"
#include "util/rng.hh"

namespace laoram::oram {
namespace {

RecursiveConfig
rcfg(std::uint64_t packing = 4, std::uint64_t threshold = 16)
{
    RecursiveConfig c;
    c.packing = packing;
    c.directThreshold = threshold;
    c.seed = 11;
    return c;
}

TEST(RecursivePosmap, FlatWhenSmall)
{
    mem::TrafficMeter meter;
    RecursivePositionMap rpm(10, 64, rcfg(4, 1024), false, meter);
    EXPECT_EQ(rpm.oramLevels(), 0u);
    EXPECT_EQ(rpm.serverBytes(), 0u);
    // Behaves exactly like a flat map.
    const Leaf old = rpm.getAndSet(3, 7);
    EXPECT_LT(old, 64u);
    EXPECT_EQ(rpm.peek(3), 7u);
    EXPECT_EQ(meter.counters().pathReads, 0u);
}

TEST(RecursivePosmap, ChainDepthMatchesPacking)
{
    mem::TrafficMeter meter;
    // 4096 blocks, chi=4, threshold 16:
    // level sizes 1024 -> 256 -> 64 -> 16 (fits) => 4 ORAM levels.
    RecursivePositionMap rpm(4096, 4096, rcfg(4, 16), false, meter);
    EXPECT_EQ(rpm.oramLevels(), 4u);
    EXPECT_GT(rpm.serverBytes(), 0u);
}

TEST(RecursivePosmap, InitialPositionsInRange)
{
    mem::TrafficMeter meter;
    RecursivePositionMap rpm(512, 512, rcfg(4, 16), false, meter);
    for (BlockId id = 0; id < 512; id += 7)
        EXPECT_LT(rpm.peek(id), 512u);
}

TEST(RecursivePosmap, GetAndSetMatchesShadowMap)
{
    mem::TrafficMeter meter;
    RecursivePositionMap rpm(512, 512, rcfg(4, 16), false, meter);

    // Mirror every update in a shadow map; lookups must agree.
    std::map<BlockId, Leaf> shadow;
    Rng rng(3);
    for (int step = 0; step < 600; ++step) {
        const BlockId id = rng.nextBounded(512);
        const Leaf next = rng.nextBounded(512);
        const Leaf old = rpm.getAndSet(id, next);
        auto it = shadow.find(id);
        if (it != shadow.end()) {
            EXPECT_EQ(old, it->second) << "id " << id << " step "
                                       << step;
        }
        shadow[id] = next;
    }
    for (const auto &[id, leaf] : shadow)
        EXPECT_EQ(rpm.peek(id), leaf);
}

TEST(RecursivePosmap, ChargesOnePathPerLevel)
{
    mem::TrafficMeter meter;
    RecursivePositionMap rpm(4096, 4096, rcfg(4, 16), false, meter);
    const auto before = meter.counters();
    rpm.getAndSet(123, 45);
    const auto d = meter.counters().since(before);
    EXPECT_EQ(d.pathReads, rpm.oramLevels());
    EXPECT_EQ(d.pathWrites, rpm.oramLevels());
}

TEST(RecursivePosmap, ClientBytesFarBelowFlatMap)
{
    mem::TrafficMeter meter;
    RecursivePositionMap rpm(1 << 16, 1 << 16, rcfg(16, 256), false, meter);
    const std::uint64_t flat = (1 << 16) * sizeof(Leaf);
    EXPECT_LT(rpm.clientBytes(), flat / 16);
}

TEST(RecursivePosmap, RemapsAreUniform)
{
    mem::TrafficMeter meter;
    constexpr std::uint64_t kLeaves = 16;
    RecursivePositionMap rpm(256, kLeaves, rcfg(4, 16), false, meter);
    Rng rng(5);
    std::vector<std::uint64_t> hist(kLeaves, 0);
    for (int i = 0; i < 8000; ++i) {
        const Leaf next = rng.nextBounded(kLeaves);
        rpm.getAndSet(rng.nextBounded(256), next);
        ++hist[next];
    }
    const double expected = 8000.0 / kLeaves;
    double chi2 = 0;
    for (auto c : hist) {
        chi2 += (static_cast<double>(c) - expected)
            * (static_cast<double>(c) - expected) / expected;
    }
    EXPECT_LT(chi2, 45.0); // df=15
}

TEST(RecursivePathOram, ReadYourWrites)
{
    EngineConfig cfg;
    cfg.numBlocks = 256;
    cfg.blockBytes = 64;
    cfg.payloadBytes = 8;
    cfg.seed = 77;
    RecursivePathOram oram(cfg, rcfg(4, 16));

    std::map<BlockId, std::vector<std::uint8_t>> ref;
    Rng rng(7);
    for (int i = 0; i < 400; ++i) {
        const BlockId id = rng.nextBounded(256);
        if (rng.nextBool(0.5)) {
            std::vector<std::uint8_t> data(
                8, static_cast<std::uint8_t>(i));
            oram.writeBlock(id, data);
            ref[id] = data;
        } else if (ref.count(id)) {
            std::vector<std::uint8_t> out;
            oram.readBlock(id, out);
            EXPECT_EQ(out, ref[id]) << "id " << id;
        }
    }
    EXPECT_EQ(auditTree(oram.pathIoForAudit(),
                        [&](BlockId id) {
                            return oram.positionMap().peek(id);
                        }),
              "");
}

TEST(RecursivePathOram, TrafficIncludesMapLevels)
{
    EngineConfig cfg;
    cfg.numBlocks = 4096;
    cfg.blockBytes = 64;
    cfg.seed = 78;
    RecursivePathOram oram(cfg, rcfg(4, 16));
    const std::uint64_t map_levels = oram.positionMap().oramLevels();
    ASSERT_GT(map_levels, 0u);

    const auto before = oram.meter().counters();
    oram.touch(9);
    const auto d = oram.meter().counters().since(before);
    // One data path + one path per map level.
    EXPECT_EQ(d.pathReads, 1 + map_levels);
    EXPECT_EQ(d.pathWrites, 1 + map_levels);
}

TEST(RecursivePathOram, CostExceedsFlatClient)
{
    // The ablation the paper's flat-map choice rests on: recursion
    // multiplies per-access traffic.
    EngineConfig cfg;
    cfg.numBlocks = 4096;
    cfg.blockBytes = 64;
    cfg.seed = 79;
    RecursivePathOram recursive(cfg, rcfg(8, 64));

    Rng rng(9);
    std::vector<BlockId> trace;
    for (int i = 0; i < 300; ++i)
        trace.push_back(rng.nextBounded(4096));
    recursive.runTrace(trace);

    // Flat-map PathORAM on the same trace.
    PathOram flat(cfg);
    flat.runTrace(trace);

    EXPECT_GT(recursive.meter().counters().totalBytes(),
              flat.meter().counters().totalBytes());
    EXPECT_GT(recursive.meter().clock().nanoseconds(),
              flat.meter().clock().nanoseconds());
}

/**
 * The recursive engine has no client-state snapshot (its map levels'
 * stashes and trees live only in this process), so a data tree
 * reopened with storage.keepExisting, or a restore request, must be
 * refused by name.
 */
TEST(RecursivePathOram, RefusesReopenedTree)
{
    const test::ScratchDir scratch;
    EngineConfig cfg;
    cfg.numBlocks = 256;
    cfg.blockBytes = 64;
    cfg.payloadBytes = 8;
    cfg.seed = 79;
    cfg.storage.kind = storage::BackendKind::MmapFile;
    cfg.storage.path = scratch.file("recursive.tree");
    {
        RecursivePathOram fresh(cfg, rcfg(4, 16));
        fresh.writeBlock(3, std::vector<std::uint8_t>(8, 0x5A));
    }
    cfg.storage.keepExisting = true;
    EXPECT_EXIT(
        {
            RecursivePathOram reopened(cfg, rcfg(4, 16));
            (void)reopened;
        },
        ::testing::ExitedWithCode(1), "recursive PathORAM");

    // A restore request over a fresh tree has no snapshot to apply.
    cfg.storage.keepExisting = false;
    cfg.checkpoint.path = scratch.file("recursive.ckpt");
    cfg.checkpoint.restore = true;
    EXPECT_EXIT(
        {
            RecursivePathOram restored(cfg, rcfg(4, 16));
            (void)restored;
        },
        ::testing::ExitedWithCode(1), "recursive PathORAM");
}

} // namespace
} // namespace laoram::oram
