/**
 * @file
 * Trusted-state snapshot robustness: a checkpoint taken over a
 * persistent mmap tree restores into a bit-identical engine (plain
 * and encrypted), while every damaged or mismatched snapshot —
 * flipped bits, truncated files, wrong geometry, wrong seed, wrong
 * superblock size, wrong section kind — is rejected loudly with a
 * SnapshotError instead of deserializing garbage into the position
 * map. The restore-or-fresh construction decision (a reopened tree
 * without --restore, a fresh tree with it, a missing sidecar) is
 * fatal by design and death-tested against its CLI guidance.
 *
 * Seeded via LAORAM_DIFF_SEED like the differential suite.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "../common/scratch_dir.hh"
#include "core/laoram_client.hh"
#include "engine_snapshot.hh"
#include "util/rng.hh"
#include "util/serde.hh"

namespace laoram::core {
namespace {

LaoramConfig
mmapConfig(const std::string &treePath, bool encrypt,
           std::uint64_t seed)
{
    LaoramConfig cfg;
    cfg.base.numBlocks = 96;
    cfg.base.blockBytes = 64;
    cfg.base.payloadBytes = 32;
    cfg.base.encrypt = encrypt;
    cfg.base.seed = seed;
    cfg.base.storage.kind = storage::BackendKind::MmapFile;
    cfg.base.storage.path = treePath;
    cfg.superblockSize = 4;
    cfg.lookaheadWindow = 32;
    return cfg;
}

/** Random trace over the engine's block space. */
std::vector<oram::BlockId>
randomTrace(std::uint64_t accesses, std::uint64_t numBlocks,
            std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<oram::BlockId> trace;
    trace.reserve(accesses);
    for (std::uint64_t i = 0; i < accesses; ++i)
        trace.push_back(rng.nextBounded(numBlocks));
    return trace;
}

/** Write a distinct payload into every block. */
void
fillPayloads(Laoram &engine, const LaoramConfig &cfg)
{
    std::vector<std::uint8_t> buf(cfg.base.payloadBytes);
    for (oram::BlockId id = 0; id < cfg.base.numBlocks; ++id) {
        for (std::size_t i = 0; i < buf.size(); ++i)
            buf[i] = static_cast<std::uint8_t>(id * 31 + i);
        engine.writeBlock(id, buf);
    }
}

class CheckpointRoundTrip : public ::testing::TestWithParam<bool>
{
  protected:
    const test::ScratchDir scratch;
    const std::string tree = scratch.file("roundtrip.tree");
    const std::string sidecar = scratch.file("roundtrip.ckpt");
};

TEST_P(CheckpointRoundTrip, RestoredEngineIsByteIdentical)
{
    const bool encrypt = GetParam();
    const std::uint64_t seed = diffSeed();
    LaoramConfig cfg = mmapConfig(tree, encrypt, seed);
    const auto trace =
        randomTrace(160, cfg.base.numBlocks, seed + 17);

    // Uninterrupted reference over DRAM: the determinism contract
    // makes it byte-identical to the mmap run, and snapshotOf's
    // payload readback may freely mutate it — the checkpointed tree
    // file below stays untouched past its sidecar.
    LaoramConfig refCfg = cfg;
    refCfg.base.storage = {};
    Laoram reference(refCfg);
    fillPayloads(reference, refCfg);
    reference.runTrace(trace);
    const EngineSnapshot snap = snapshotOf(reference);

    {
        Laoram original(cfg);
        fillPayloads(original, cfg);
        original.runTrace(trace);
        original.checkpointToFile(sidecar);
    } // flushes + unmaps the tree file at exactly checkpoint state

    LaoramConfig rcfg = cfg;
    rcfg.base.storage.keepExisting = true;
    rcfg.base.checkpoint.path = sidecar;
    rcfg.base.checkpoint.restore = true;
    Laoram restored(rcfg);
    expectMatchesSnapshot(snap, restored, "restored engine");
}

TEST_P(CheckpointRoundTrip, CheckpointIsDeterministic)
{
    // Two checkpoints of the same quiesced engine must be
    // byte-identical (the stash is serialized in sorted order), so
    // snapshots can be compared/deduplicated by hash.
    const bool encrypt = GetParam();
    LaoramConfig cfg = mmapConfig(tree, encrypt, diffSeed());
    Laoram engine(cfg);
    fillPayloads(engine, cfg);
    engine.runTrace(
        randomTrace(96, cfg.base.numBlocks, diffSeed() + 3));
    EXPECT_EQ(engine.checkpoint(), engine.checkpoint());
}

INSTANTIATE_TEST_SUITE_P(PlainAndEncrypted, CheckpointRoundTrip,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool> &i) {
                             return i.param ? "Encrypted" : "Plain";
                         });

class CheckpointRejection : public ::testing::Test
{
  protected:
    /** A DRAM engine with some state plus its checkpoint blob. */
    std::vector<std::uint8_t>
    blobOf(const LaoramConfig &cfg)
    {
        Laoram engine(cfg);
        engine.runTrace(
            randomTrace(64, cfg.base.numBlocks, diffSeed() + 5));
        return engine.checkpoint();
    }

    LaoramConfig
    dramConfig(std::uint64_t seed = 11)
    {
        LaoramConfig cfg;
        cfg.base.numBlocks = 64;
        cfg.base.blockBytes = 64;
        cfg.base.seed = seed;
        cfg.superblockSize = 4;
        cfg.lookaheadWindow = 16;
        return cfg;
    }
};

TEST_F(CheckpointRejection, SampledBitFlipsAreRejected)
{
    const LaoramConfig cfg = dramConfig();
    const std::vector<std::uint8_t> blob = blobOf(cfg);
    Laoram victim(cfg);

    // The frame-level test in serde_test is exhaustive on a small
    // frame; over a real multi-KB engine snapshot we sample bit
    // positions (seeded) and every mutant must throw before any
    // client state is touched.
    Rng rng(diffSeed() + 99);
    for (int i = 0; i < 64; ++i) {
        auto mutant = blob;
        const std::uint64_t bit =
            rng.nextBounded(mutant.size() * 8);
        mutant[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        EXPECT_THROW(victim.restoreFrom(mutant),
                     serde::SnapshotError)
            << "bit " << bit << " flip was accepted";
    }
    // The victim still serves: every rejection happened at checksum
    // time, before any state was overwritten.
    victim.runTrace(randomTrace(16, cfg.base.numBlocks, 1));
}

TEST_F(CheckpointRejection, TruncationsAreRejected)
{
    const LaoramConfig cfg = dramConfig();
    const std::vector<std::uint8_t> blob = blobOf(cfg);
    Laoram victim(cfg);
    for (std::size_t keep = 0; keep < blob.size();
         keep += 41) { // stride keeps the sweep fast but dense
        const std::vector<std::uint8_t> cut(blob.begin(),
                                            blob.begin() + keep);
        EXPECT_THROW(victim.restoreFrom(cut), serde::SnapshotError)
            << "truncation to " << keep << " bytes was accepted";
    }
}

TEST_F(CheckpointRejection, MismatchedEnginesAreRefused)
{
    const std::vector<std::uint8_t> blob = blobOf(dramConfig());

    {
        LaoramConfig other = dramConfig();
        other.base.numBlocks = 128; // wrong geometry
        Laoram victim(other);
        EXPECT_THROW(victim.restoreFrom(blob), serde::SnapshotError);
    }
    {
        LaoramConfig other = dramConfig();
        other.base.blockBytes = 128; // wrong block size
        Laoram victim(other);
        EXPECT_THROW(victim.restoreFrom(blob), serde::SnapshotError);
    }
    {
        LaoramConfig other = dramConfig(12); // wrong RNG lineage
        Laoram victim(other);
        EXPECT_THROW(victim.restoreFrom(blob), serde::SnapshotError);
    }
    {
        LaoramConfig other = dramConfig();
        other.base.encrypt = true; // wrong at-rest encryption
        Laoram victim(other);
        EXPECT_THROW(victim.restoreFrom(blob), serde::SnapshotError);
    }
    {
        LaoramConfig other = dramConfig();
        other.superblockSize = 8; // wrong look-ahead shape
        Laoram victim(other);
        EXPECT_THROW(victim.restoreFrom(blob), serde::SnapshotError);
    }
}

TEST_F(CheckpointRejection, WrongSectionKindIsRefused)
{
    // A sharded manifest is not an engine snapshot, even with a valid
    // checksum.
    serde::Serializer s;
    s.u32(1);
    s.u64(64);
    for (int i = 0; i < 64; ++i)
        s.u32(0);
    const auto manifest =
        serde::seal(serde::SnapshotKind::ShardedManifest, s.data());
    Laoram victim(dramConfig());
    EXPECT_THROW(victim.restoreFrom(manifest), serde::SnapshotError);
}

class CheckpointHotCache : public ::testing::Test
{
  protected:
    LaoramConfig
    cachedConfig(std::uint64_t cacheRows = 16)
    {
        LaoramConfig cfg;
        cfg.base.numBlocks = 64;
        cfg.base.blockBytes = 64;
        cfg.base.payloadBytes = 16;
        cfg.base.seed = 21;
        cfg.superblockSize = 4;
        cfg.lookaheadWindow = 16;
        cfg.cache.capacityBytes = cacheRows * cfg.base.payloadBytes;
        return cfg;
    }

    /** Hot-set trace so the cache holds rows and has hit. */
    std::vector<oram::BlockId>
    hotTrace(std::uint64_t accesses, std::uint64_t seed)
    {
        Rng rng(seed);
        std::vector<oram::BlockId> trace;
        trace.reserve(accesses);
        for (std::uint64_t i = 0; i < accesses; ++i)
            trace.push_back(rng.nextBounded(8));
        return trace;
    }
};

TEST_F(CheckpointHotCache, WarmCacheSurvivesCheckpointRestore)
{
    const LaoramConfig cfg = cachedConfig();
    Laoram original(cfg);
    original.setTouchCallback(
        [](oram::BlockId id, std::vector<std::uint8_t> &payload) {
            payload[0] = static_cast<std::uint8_t>(payload[0] + id + 1);
        });
    original.runTrace(hotTrace(120, diffSeed() + 7));
    original.setTouchCallback(nullptr);
    const cache::CacheStats before = original.hotCache()->stats();
    ASSERT_GT(before.hits, 0u);
    ASSERT_GT(before.residentRows, 0u);

    Laoram restored(cfg);
    restored.restoreFrom(original.checkpoint());

    // Counters and residency came back wholesale...
    const cache::CacheStats after = restored.hotCache()->stats();
    EXPECT_EQ(before.hits, after.hits);
    EXPECT_EQ(before.misses, after.misses);
    EXPECT_EQ(before.evictions, after.evictions);
    EXPECT_EQ(before.residentRows, after.residentRows);
    EXPECT_EQ(before.residentBytes, after.residentBytes);

    // ...and the restored cache is *warm*: continuing both engines
    // over the same stream keeps them byte-identical, including the
    // hit counters (restored rows serve hits, not misses).
    const auto more = hotTrace(60, diffSeed() + 8);
    original.runTrace(more);
    restored.runTrace(more);
    expectMatchesSnapshot(snapshotOf(original), restored,
                          "continued after restore");
    EXPECT_EQ(original.hotCache()->stats().hits,
              restored.hotCache()->stats().hits);
}

TEST_F(CheckpointHotCache, CacheConfigMismatchOnRestoreIsRefused)
{
    const LaoramConfig cfg = cachedConfig();
    Laoram engine(cfg);
    engine.runTrace(hotTrace(60, diffSeed() + 9));
    const std::vector<std::uint8_t> blob = engine.checkpoint();

    {
        // Snapshot carries a cache section; an engine without a cache
        // cannot silently drop the warm rows it promises.
        LaoramConfig other = cfg;
        other.cache = {};
        Laoram victim(other);
        EXPECT_THROW(victim.restoreFrom(blob), serde::SnapshotError);
    }
    {
        LaoramConfig other = cfg;
        other.cache.capacityBytes *= 2; // wrong capacity
        Laoram victim(other);
        EXPECT_THROW(victim.restoreFrom(blob), serde::SnapshotError);
    }
}

TEST_F(CheckpointHotCache, CachelessSnapshotRestoresColdIntoCachedEngine)
{
    // Enabling the cache on an engine restored from a pre-cache
    // snapshot is legal (an upgrade, not a mismatch): it simply
    // starts cold.
    LaoramConfig plain = cachedConfig();
    plain.cache = {};
    Laoram old(plain);
    old.runTrace(hotTrace(60, diffSeed() + 10));
    const std::vector<std::uint8_t> blob = old.checkpoint();

    Laoram upgraded(cachedConfig());
    // Pre-warm the cache directly (running a trace would advance the
    // engine past the snapshot): restore must still drop these rows.
    upgraded.hotCache()->fill(3, std::vector<std::uint8_t>(16, 0xEE));
    ASSERT_GT(upgraded.hotCache()->stats().residentRows, 0u);
    upgraded.restoreFrom(blob);
    EXPECT_EQ(upgraded.hotCache()->stats().residentRows, 0u)
        << "stale pre-restore rows must not survive the restore";

    // And it serves correctly from cold.
    upgraded.runTrace(hotTrace(30, diffSeed() + 12));
}

TEST(CheckpointFreshness, ReopenedTreeWithoutRestoreIsFatal)
{
    const test::ScratchDir scratch;
    const std::string tree = scratch.file("freshness.tree");
    LaoramConfig cfg = mmapConfig(tree, false, 3);
    { Laoram first(cfg); } // creates + persists the tree

    LaoramConfig again = cfg;
    again.base.storage.keepExisting = true;
    // The message must point the operator at the actual recovery
    // flow: --restore --checkpoint-path.
    EXPECT_DEATH({ Laoram dead(again); (void)dead; },
                 "--restore --checkpoint-path");
}

TEST(CheckpointFreshness, RestoreAgainstFreshTreeIsFatal)
{
    const test::ScratchDir scratch;
    const std::string tree = scratch.file("fresh_restore.tree");
    const std::string sidecar = scratch.file("fresh_restore.ckpt");
    serde::writeFileAtomic(sidecar,
                           serde::seal(serde::SnapshotKind::Engine,
                                       {}));
    LaoramConfig cfg = mmapConfig(tree, false, 3);
    cfg.base.checkpoint.path = sidecar;
    cfg.base.checkpoint.restore = true;
    EXPECT_DEATH({ Laoram dead(cfg); (void)dead; },
                 "initialised fresh");
}

TEST(CheckpointFreshness, MissingSidecarIsFatal)
{
    const test::ScratchDir scratch;
    const std::string tree = scratch.file("missing_sidecar.tree");
    const std::string sidecar = scratch.file("missing_sidecar.ckpt");
    LaoramConfig cfg = mmapConfig(tree, false, 3);
    { Laoram first(cfg); }

    LaoramConfig again = cfg;
    again.base.storage.keepExisting = true;
    again.base.checkpoint.path = sidecar;
    again.base.checkpoint.restore = true;
    EXPECT_DEATH({ Laoram dead(again); (void)dead; },
                 "genuinely unrestorable");
}

} // namespace
} // namespace laoram::core
