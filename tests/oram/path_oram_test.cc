/**
 * @file
 * PathORAM engine tests: functional correctness, invariants, stash
 * behaviour, metering, and new-path uniformity.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "oram/evictor.hh"
#include "oram/path_oram.hh"
#include "util/rng.hh"

namespace laoram::oram {
namespace {

EngineConfig
smallConfig(std::uint64_t blocks = 128, std::uint64_t payload = 16,
            bool encrypt = false)
{
    EngineConfig cfg;
    cfg.numBlocks = blocks;
    cfg.blockBytes = 64;
    cfg.payloadBytes = payload;
    cfg.profile = BucketProfile::uniform(4);
    cfg.encrypt = encrypt;
    cfg.seed = 12345;
    return cfg;
}

std::vector<std::uint8_t>
patternPayload(BlockId id, std::uint64_t len, int salt = 0)
{
    std::vector<std::uint8_t> v(len);
    for (std::uint64_t i = 0; i < len; ++i)
        v[i] = static_cast<std::uint8_t>(id * 13 + i + salt);
    return v;
}

TEST(PathOram, UnwrittenBlockReadsAsZeros)
{
    PathOram oram(smallConfig());
    std::vector<std::uint8_t> out;
    oram.readBlock(42, out);
    EXPECT_EQ(out, std::vector<std::uint8_t>(16, 0));
}

TEST(PathOram, ReadYourWrites)
{
    PathOram oram(smallConfig());
    oram.writeBlock(7, patternPayload(7, 16));
    std::vector<std::uint8_t> out;
    oram.readBlock(7, out);
    EXPECT_EQ(out, patternPayload(7, 16));
}

TEST(PathOram, RandomOpsMatchReferenceMap)
{
    PathOram oram(smallConfig());
    std::map<BlockId, std::vector<std::uint8_t>> ref;
    Rng rng(99);
    for (int i = 0; i < 800; ++i) {
        const BlockId id = rng.nextBounded(128);
        if (rng.nextBool(0.5)) {
            auto data = patternPayload(id, 16, i);
            oram.writeBlock(id, data);
            ref[id] = data;
        } else {
            std::vector<std::uint8_t> out;
            oram.readBlock(id, out);
            auto it = ref.find(id);
            if (it != ref.end())
                EXPECT_EQ(out, it->second) << "block " << id;
            else
                EXPECT_EQ(out, std::vector<std::uint8_t>(16, 0));
        }
    }
}

TEST(PathOram, RandomOpsWithEncryption)
{
    PathOram oram(smallConfig(64, 16, /*encrypt=*/true));
    std::map<BlockId, std::vector<std::uint8_t>> ref;
    Rng rng(100);
    for (int i = 0; i < 300; ++i) {
        const BlockId id = rng.nextBounded(64);
        if (rng.nextBool(0.5)) {
            auto data = patternPayload(id, 16, i);
            oram.writeBlock(id, data);
            ref[id] = data;
        } else if (ref.count(id)) {
            std::vector<std::uint8_t> out;
            oram.readBlock(id, out);
            EXPECT_EQ(out, ref[id]);
        }
    }
}

TEST(PathOram, InvariantAuditAfterChurn)
{
    PathOram oram(smallConfig());
    Rng rng(5);
    for (int i = 0; i < 500; ++i)
        oram.touch(rng.nextBounded(128));
    EXPECT_EQ(auditTree(oram.pathIoForAudit(), oram.posmapForAudit()),
              "");
}

TEST(PathOram, MetersOnePathReadPerAccess)
{
    // Without a treetop every access moves one whole path; with the
    // default one, the path's levels >= k.
    for (const bool treetop : {false, true}) {
        EngineConfig cfg = smallConfig();
        if (!treetop)
            cfg.treetopLevels = 0;
        PathOram oram(cfg);
        Rng rng(6);
        for (int i = 0; i < 200; ++i)
            oram.touch(rng.nextBounded(128));
        const TreeGeometry &g = oram.geometry();
        const unsigned k = g.treetopLevels();
        ASSERT_EQ(k, treetop ? g.numLevels() / 2 : 0u);
        std::uint64_t topPathSlots = 0;
        for (unsigned level = 0; level < k; ++level)
            topPathSlots += g.bucketSize(level);
        const std::uint64_t serverPathBytes =
            g.pathBytes() - topPathSlots * g.blockBytes();
        const auto &c = oram.meter().counters();
        EXPECT_EQ(c.logicalAccesses, 200u);
        EXPECT_EQ(c.pathReads, 200u);
        EXPECT_EQ(c.pathWrites, 200u);
        EXPECT_EQ(c.bytesRead,
                  200u * serverPathBytes + c.dummyReads * serverPathBytes);
        if (!treetop) {
            EXPECT_EQ(c.bytesRead,
                      200u * g.pathBytes() + c.dummyReads * g.pathBytes());
        }
    }
}

TEST(PathOram, SimulatedTimeAdvances)
{
    PathOram oram(smallConfig());
    oram.touch(0);
    const double t1 = oram.meter().clock().nanoseconds();
    EXPECT_GT(t1, 0.0);
    oram.touch(1);
    EXPECT_GT(oram.meter().clock().nanoseconds(), t1);
}

TEST(PathOram, StashStaysSmallOnUniformTraffic)
{
    auto cfg = smallConfig(1024, 0);
    PathOram oram(cfg);
    Rng rng(8);
    std::uint64_t peak = 0;
    for (int i = 0; i < 3000; ++i) {
        oram.touch(rng.nextBounded(1024));
        peak = std::max(peak, oram.stashSize());
    }
    // Z=4 PathORAM stash is known to stay tiny (paper §II-E).
    EXPECT_LT(peak, 100u);
    EXPECT_EQ(oram.meter().counters().dummyReads, 0u);
}

TEST(PathOram, NewLeafAssignmentIsUniform)
{
    // Theorem check (paper §VI): after many accesses the remapped
    // leaves are uniform over the leaf domain.
    auto cfg = smallConfig(256, 0);
    PathOram oram(cfg);
    const std::uint64_t leaves = oram.geometry().numLeaves();
    std::vector<std::uint64_t> hist(leaves, 0);
    Rng rng(10);
    constexpr int kAccesses = 16384;
    for (int i = 0; i < kAccesses; ++i) {
        const BlockId id = rng.nextBounded(256);
        oram.touch(id);
        ++hist[oram.posmapForAudit().get(id)];
    }
    const double expected =
        static_cast<double>(kAccesses) / static_cast<double>(leaves);
    double chi2 = 0;
    for (auto c : hist) {
        chi2 += (static_cast<double>(c) - expected)
            * (static_cast<double>(c) - expected) / expected;
    }
    // df = 255; p=0.001 cutoff ~ 330.
    EXPECT_LT(chi2, 340.0);
}

TEST(PathOram, WorksOnFatTree)
{
    auto cfg = smallConfig();
    cfg.profile = BucketProfile::fat(4);
    PathOram oram(cfg);
    std::map<BlockId, std::vector<std::uint8_t>> ref;
    Rng rng(11);
    for (int i = 0; i < 300; ++i) {
        const BlockId id = rng.nextBounded(128);
        auto data = patternPayload(id, 16, i);
        oram.writeBlock(id, data);
        ref[id] = data;
    }
    for (const auto &[id, data] : ref) {
        std::vector<std::uint8_t> out;
        oram.readBlock(id, out);
        EXPECT_EQ(out, data);
    }
    EXPECT_EQ(auditTree(oram.pathIoForAudit(), oram.posmapForAudit()),
              "");
}

TEST(PathOram, RunTraceTouchesEverything)
{
    PathOram oram(smallConfig(64, 0));
    std::vector<BlockId> trace{1, 5, 1, 63, 0, 5};
    oram.runTrace(trace);
    EXPECT_EQ(oram.meter().counters().logicalAccesses, trace.size());
}

TEST(PathOram, StashHitStillReadsPath)
{
    // Access the same block twice in a row; even if the second find
    // hits the stash the path traffic must be identical (that is the
    // obliviousness contract).
    PathOram oram(smallConfig(64, 0));
    oram.touch(3);
    const auto before = oram.meter().counters();
    oram.touch(3);
    const auto delta = oram.meter().counters().since(before);
    EXPECT_EQ(delta.pathReads, 1u);
    EXPECT_EQ(delta.pathWrites, 1u);
}

TEST(PathOram, RejectsOutOfRangeBlock)
{
    PathOram oram(smallConfig(16, 0));
    EXPECT_DEATH(oram.touch(16), "out of range");
}

/** Parameterised correctness sweep over tree shapes. */
struct ShapeCase
{
    std::uint64_t blocks;
    std::uint64_t leafZ;
    std::uint64_t rootZ;
    std::uint64_t payload;
};

class PathOramShapes : public ::testing::TestWithParam<ShapeCase>
{
};

TEST_P(PathOramShapes, ReadYourWritesAndAudit)
{
    const auto p = GetParam();
    EngineConfig cfg;
    cfg.numBlocks = p.blocks;
    cfg.blockBytes = 64;
    cfg.payloadBytes = p.payload;
    cfg.profile = BucketProfile::linear(p.leafZ, p.rootZ);
    cfg.seed = 77;
    PathOram oram(cfg);
    Rng rng(p.blocks);
    std::map<BlockId, std::vector<std::uint8_t>> ref;
    for (int i = 0; i < 250; ++i) {
        const BlockId id = rng.nextBounded(p.blocks);
        auto data = patternPayload(id, p.payload, i);
        oram.writeBlock(id, data);
        ref[id] = data;
    }
    for (const auto &[id, data] : ref) {
        std::vector<std::uint8_t> out;
        oram.readBlock(id, out);
        EXPECT_EQ(out, data);
    }
    EXPECT_EQ(auditTree(oram.pathIoForAudit(), oram.posmapForAudit()),
              "");
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PathOramShapes,
    ::testing::Values(ShapeCase{8, 2, 2, 8}, ShapeCase{64, 4, 4, 16},
                      ShapeCase{100, 4, 8, 8}, ShapeCase{256, 5, 9, 4},
                      ShapeCase{1000, 6, 6, 8},
                      ShapeCase{2048, 4, 8, 0}));

} // namespace
} // namespace laoram::oram
