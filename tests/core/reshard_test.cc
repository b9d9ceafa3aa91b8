/**
 * @file
 * Elastic reshard + sharded checkpoint tests: reshard(N -> M) for
 * N, M in {1, 2, 4} must preserve the logical block store exactly
 * (every payload readable at its global id through the new shard
 * layout) and keep serving afterwards; a ShardedLaoram checkpoint
 * (manifest + per-shard sidecars) must restore into an equivalent
 * store; damaged or mismatched manifests must be refused at
 * construction. Randomized and seeded via LAORAM_DIFF_SEED.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/sharded_laoram.hh"
#include "util/rng.hh"
#include "util/serde.hh"

#include "../common/scratch_dir.hh"
// Engine-snapshot helpers (diffSeed) live with the integration suite.
#include "../integration/engine_snapshot.hh"

namespace laoram::core {
namespace {

constexpr std::uint64_t kBlocks = 96;
constexpr std::uint64_t kPayloadBytes = 32;

ShardedLaoramConfig
dramConfig(std::uint32_t numShards, std::uint64_t seed)
{
    ShardedLaoramConfig cfg;
    cfg.engine.base.numBlocks = kBlocks;
    cfg.engine.base.blockBytes = 64;
    cfg.engine.base.payloadBytes = kPayloadBytes;
    cfg.engine.base.seed = seed;
    cfg.engine.superblockSize = 4;
    cfg.engine.lookaheadWindow = 16;
    cfg.numShards = numShards;
    cfg.pipeline.windowAccesses = 16;
    cfg.pipeline.prepThreads = 1;
    return cfg;
}

std::vector<std::uint8_t>
payloadFor(oram::BlockId id)
{
    std::vector<std::uint8_t> buf(kPayloadBytes);
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<std::uint8_t>(id * 37 + i * 11 + 5);
    return buf;
}

void
fillPayloads(ShardedLaoram &laoram)
{
    for (oram::BlockId g = 0; g < kBlocks; ++g) {
        const std::uint32_t sh = laoram.splitter().shardOf(g);
        laoram.shard(sh).writeBlock(laoram.splitter().localId(g),
                                    payloadFor(g));
    }
}

void
expectAllPayloads(ShardedLaoram &laoram, const std::string &what)
{
    std::vector<std::uint8_t> buf;
    for (oram::BlockId g = 0; g < kBlocks; ++g) {
        const std::uint32_t sh = laoram.splitter().shardOf(g);
        laoram.shard(sh).readBlock(laoram.splitter().localId(g), buf);
        EXPECT_EQ(buf, payloadFor(g))
            << what << ": payload of global block " << g;
    }
}

std::vector<oram::BlockId>
randomTrace(std::uint64_t accesses, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<oram::BlockId> trace;
    trace.reserve(accesses);
    for (std::uint64_t i = 0; i < accesses; ++i)
        trace.push_back(rng.nextBounded(kBlocks));
    return trace;
}

TEST(Reshard, EveryShardCountPairPreservesTheLogicalStore)
{
    const std::uint32_t counts[] = {1, 2, 4};
    std::uint64_t leg = 0;
    for (std::uint32_t n : counts) {
        for (std::uint32_t m : counts) {
            const std::uint64_t seed = diffSeed() + 100 * leg++;
            const std::string what = std::to_string(n) + " -> "
                                     + std::to_string(m) + " shards";
            ShardedLaoram laoram(dramConfig(n, seed));
            fillPayloads(laoram);
            laoram.runTrace(randomTrace(96, seed + 1));

            laoram.reshard(m);
            ASSERT_EQ(laoram.numShards(), m) << what;
            expectAllPayloads(laoram, what);

            // The resharded store keeps serving obliviously.
            const auto rep = laoram.runTrace(randomTrace(64, seed + 2));
            std::uint64_t served = 0;
            for (const auto &shardRep : rep.shards)
                served += shardRep.accesses;
            EXPECT_EQ(served, 64u) << what;
            expectAllPayloads(laoram, what + " after serving");
        }
    }
}

TEST(Reshard, ArbitraryAssignmentTablesAreHonoured)
{
    // Beyond the hashed default: reshard onto a randomized explicit
    // assignment (the shape a load balancer would hand over).
    const std::uint64_t seed = diffSeed() + 7;
    ShardedLaoram laoram(dramConfig(2, seed));
    fillPayloads(laoram);
    laoram.runTrace(randomTrace(96, seed + 1));

    Rng rng(seed + 2);
    std::vector<std::uint32_t> assignment(kBlocks);
    for (auto &a : assignment)
        a = static_cast<std::uint32_t>(rng.nextBounded(3));
    laoram.reshard(ShardSplitter::fromAssignment(assignment, 3));

    ASSERT_EQ(laoram.numShards(), 3u);
    for (oram::BlockId g = 0; g < kBlocks; ++g)
        EXPECT_EQ(laoram.splitter().shardOf(g), assignment[g]);
    expectAllPayloads(laoram, "explicit assignment");
}

TEST(Reshard, TouchCallbackSurvivesReshard)
{
    const std::uint64_t seed = diffSeed() + 13;
    ShardedLaoram laoram(dramConfig(2, seed));
    std::atomic<std::uint64_t> touches{0};
    laoram.setTouchCallback(
        [&](oram::BlockId, std::vector<std::uint8_t> &) {
            touches.fetch_add(1, std::memory_order_relaxed);
        });
    fillPayloads(laoram);
    laoram.reshard(4);
    touches.store(0);
    laoram.runTrace(randomTrace(64, seed + 1));
    EXPECT_GT(touches.load(), 0u)
        << "touch callback was dropped by reshard";
}

class ShardedCheckpoint : public ::testing::Test
{
  protected:
    std::string
    treeBase() const
    {
        return base + ".tree";
    }

    ShardedLaoramConfig
    mmapConfig(std::uint32_t numShards) const
    {
        ShardedLaoramConfig cfg = dramConfig(numShards, kSeed);
        cfg.engine.base.storage.kind = storage::BackendKind::MmapFile;
        cfg.engine.base.storage.path = treeBase();
        return cfg;
    }

    static constexpr std::uint64_t kSeed = 23;
    const test::ScratchDir scratch;
    const std::string base = scratch.file("ckpt");
};

TEST_F(ShardedCheckpoint, ManifestAndShardSidecarsRoundTrip)
{
    std::vector<std::uint32_t> assignment;
    double simBefore = 0.0;
    {
        ShardedLaoram laoram(mmapConfig(2));
        fillPayloads(laoram);
        laoram.runTrace(randomTrace(96, kSeed + 1));
        for (oram::BlockId g = 0; g < kBlocks; ++g)
            assignment.push_back(laoram.splitter().shardOf(g));
        laoram.checkpointToFile(base);
        simBefore = laoram.simNs();
    } // shard trees flushed + unmapped at checkpoint state

    ShardedLaoramConfig rcfg = mmapConfig(2);
    rcfg.engine.base.storage.keepExisting = true;
    rcfg.engine.base.checkpoint.path = base;
    rcfg.engine.base.checkpoint.restore = true;
    ShardedLaoram restored(rcfg);

    for (oram::BlockId g = 0; g < kBlocks; ++g)
        EXPECT_EQ(restored.splitter().shardOf(g), assignment[g])
            << "restored manifest assignment of block " << g;
    EXPECT_EQ(restored.simNs(), simBefore);
    expectAllPayloads(restored, "restored sharded store");

    // The restored store serves and can even reshard afterwards.
    restored.runTrace(randomTrace(32, kSeed + 2));
    restored.reshard(4);
    expectAllPayloads(restored, "restored then resharded");
}

TEST_F(ShardedCheckpoint, CorruptManifestIsRefused)
{
    {
        ShardedLaoram laoram(mmapConfig(2));
        fillPayloads(laoram);
        laoram.checkpointToFile(base);
    }
    auto manifest = serde::readFile(base);
    manifest[manifest.size() / 2] ^= 0x10;
    serde::writeFileAtomic(base, manifest);

    ShardedLaoramConfig rcfg = mmapConfig(2);
    rcfg.engine.base.storage.keepExisting = true;
    rcfg.engine.base.checkpoint.path = base;
    rcfg.engine.base.checkpoint.restore = true;
    EXPECT_THROW(ShardedLaoram dead(rcfg), serde::SnapshotError);
}

TEST_F(ShardedCheckpoint, ShardCountMismatchIsRefused)
{
    {
        ShardedLaoram laoram(mmapConfig(2));
        fillPayloads(laoram);
        laoram.checkpointToFile(base);
    }
    // The manifest says 2 shards; a 4-shard deployment must not
    // silently adopt it — reshard() is the supported migration.
    ShardedLaoramConfig rcfg = mmapConfig(4);
    rcfg.engine.base.storage.keepExisting = true;
    rcfg.engine.base.checkpoint.path = base;
    rcfg.engine.base.checkpoint.restore = true;
    EXPECT_THROW(ShardedLaoram dead(rcfg), serde::SnapshotError);
}

TEST_F(ShardedCheckpoint, PersistentTreesReshardInPlace)
{
    // Reshard over mmap-backed shard trees: the seed-derived file
    // suffixes collide between the old and new layout, so the rebuild
    // must tear down (flush + unmap) before recreating.
    ShardedLaoram laoram(mmapConfig(4));
    fillPayloads(laoram);
    laoram.runTrace(randomTrace(96, kSeed + 1));
    laoram.reshard(2);
    ASSERT_EQ(laoram.numShards(), 2u);
    expectAllPayloads(laoram, "persistent 4 -> 2");
    laoram.reshard(4);
    expectAllPayloads(laoram, "persistent 2 -> 4");
}

} // namespace
} // namespace laoram::core
