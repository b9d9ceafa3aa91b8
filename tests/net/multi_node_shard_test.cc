/**
 * @file
 * Multi-node sharding test: a ShardedLaoram whose shards dial real
 * TCP listeners (one RemoteKvServer + NodeListener per shard — the
 * paper's one-tree-per-storage-node deployment) must be an exact
 * behavioural twin of the same sharded run over local DRAM: same
 * meters, same simulated clock, same position maps, byte-identical
 * payloads. Plus the config guard: an endpoint list that does not
 * match numShards is a startup fatal, not a silent partial dial.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/sharded_laoram.hh"
#include "net/node_server.hh"
#include "storage/remote_backend.hh"
#include "storage/slot_backend.hh"
#include "util/rng.hh"

namespace laoram::net {
namespace {

constexpr std::uint32_t kShards = 2;
constexpr std::uint64_t kBlocks = 256;

std::vector<oram::BlockId>
randomTrace(std::uint64_t n, std::uint64_t blocks, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<oram::BlockId> t;
    t.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
        t.push_back(rng.nextBounded(blocks));
    return t;
}

core::ShardedLaoramConfig
shardedConfig()
{
    core::ShardedLaoramConfig cfg;
    cfg.engine.base.numBlocks = kBlocks;
    cfg.engine.base.blockBytes = 64;
    cfg.engine.base.payloadBytes = 32;
    cfg.engine.base.seed = 21;
    cfg.engine.superblockSize = 4;
    cfg.numShards = kShards;
    cfg.pipeline.windowAccesses = 64;
    return cfg;
}

/** One DRAM-inner node serving the geometry shard @p sc runs under. */
std::unique_ptr<storage::RemoteKvServer>
nodeFor(const core::LaoramConfig &sc)
{
    const oram::TreeGeometry geom(sc.base.numBlocks,
                                  sc.base.blockBytes,
                                  sc.base.profile,
                                  sc.base.treetopLevels);
    return std::make_unique<storage::RemoteKvServer>(
        storage::makeBackend(storage::StorageConfig{},
                             geom.totalSlots(),
                             16 + sc.base.payloadBytes, 0),
        storage::RemoteKvConfig{});
}

TEST(MultiNodeShard, TwoNodeRunMatchesLocalRunExactly)
{
    const auto trace = randomTrace(1000, kBlocks, 31);
    const core::ShardedLaoramConfig cfg = shardedConfig();

    // Local reference: every shard over in-process DRAM.
    core::ShardedLaoram local(cfg);
    local.runTrace(trace);

    // One real listener-backed storage node per shard. Geometry per
    // node comes from the reference's derived shard configs (the
    // splitter is deterministic, so the remote run derives the same).
    std::vector<std::unique_ptr<storage::RemoteKvServer>> nodes;
    std::vector<std::unique_ptr<NodeListener>> listeners;
    core::ShardedLaoramConfig rcfg = cfg;
    for (std::uint32_t s = 0; s < kShards; ++s) {
        nodes.push_back(nodeFor(local.shardEngineConfigFor(s)));
        Endpoint ep;
        ASSERT_TRUE(parseEndpoint("127.0.0.1:0", &ep));
        listeners.push_back(
            std::make_unique<NodeListener>(*nodes.back(), ep));
        rcfg.shardEndpoints.push_back(
            listeners.back()->endpoint().str());
    }

    {
        core::ShardedLaoram remote(rcfg);
        remote.runTrace(trace);

        for (std::uint32_t s = 0; s < kShards; ++s) {
            const core::Laoram &a = local.shard(s);
            const core::Laoram &b = remote.shard(s);
            const auto &ca = a.meter().counters();
            const auto &cb = b.meter().counters();
            EXPECT_EQ(ca.logicalAccesses, cb.logicalAccesses);
            EXPECT_EQ(ca.pathReads, cb.pathReads);
            EXPECT_EQ(ca.pathWrites, cb.pathWrites);
            EXPECT_EQ(ca.dummyReads, cb.dummyReads);
            EXPECT_EQ(ca.bytesRead, cb.bytesRead);
            EXPECT_EQ(ca.bytesWritten, cb.bytesWritten);
            EXPECT_EQ(ca.stashPeak, cb.stashPeak);
            EXPECT_DOUBLE_EQ(a.meter().clock().nanoseconds(),
                             b.meter().clock().nanoseconds());
            EXPECT_EQ(a.stashSize(), b.stashSize());
            ASSERT_EQ(a.posmapForAudit().size(),
                      b.posmapForAudit().size());
            for (oram::BlockId id = 0; id < a.posmapForAudit().size();
                 ++id)
                ASSERT_EQ(a.posmapForAudit().get(id),
                          b.posmapForAudit().get(id))
                    << "shard " << s << " posmap block " << id;

            std::vector<std::uint8_t> bufA, bufB;
            const auto &split = local.splitter();
            for (oram::BlockId l = 0; l < split.shardBlocks(s); ++l) {
                local.shard(s).readBlock(l, bufA);
                remote.shard(s).readBlock(l, bufB);
                ASSERT_EQ(bufA, bufB)
                    << "shard " << s << " block " << l;
            }
        }
    } // remote engines hang up before listeners/nodes tear down

    // Every node genuinely served its shard's tree.
    for (std::uint32_t s = 0; s < kShards; ++s)
        EXPECT_GT(nodes[s]->inner().ioStats().slotsWritten, 0u)
            << "node " << s;
}

TEST(MultiNodeShardDeath, EndpointCountMismatchIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            core::ShardedLaoramConfig cfg = shardedConfig();
            cfg.shardEndpoints = {"127.0.0.1:1"}; // 1 endpoint, 2 shards
            core::ShardedLaoram bad(cfg);
        },
        ::testing::ExitedWithCode(1), "laoram_node");
}

} // namespace
} // namespace laoram::net
