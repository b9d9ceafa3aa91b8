/**
 * @file
 * Kill-and-restore differential leg: an engine that dies at a random
 * window boundary — trusted state checkpointed to its sidecar, the
 * process gone — and is restored into a fresh Laoram over the
 * reopened tree must finish the trace byte-identically to a reference
 * engine that never died. Payloads, position map, stash, traffic
 * meters and the simulated clock are all compared via the shared
 * EngineSnapshot helpers, and the restored run's window numbering
 * (PipelineConfig::firstWindowIndex + windowBoundaryHook) is checked
 * to continue the original stream.
 *
 * The first case kills the victim by giving it only the trace prefix,
 * which is the same schedule only when links stay inside windows
 * (lookaheadHorizon 0). The second runs at the default whole-stream
 * horizon: the victim serves the whole trace, checkpoints at the first
 * window boundary where its stash is non-empty and dies there by
 * throwing from the boundary hook, so its windows carried the same
 * cross-window links as the reference's; the restored tree must also
 * hold every record in the reference's slot.
 *
 * Runs over both persistent backends: mmap, and a remote-KV node with
 * a server-side tree file. Seeded via LAORAM_DIFF_SEED /
 * LAORAM_DIFF_ITERS like the differential suite.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "../common/scratch_dir.hh"
#include "core/pipeline.hh"
#include "engine_snapshot.hh"
#include "storage/slot_backend.hh"
#include "util/rng.hh"

namespace laoram::core {
namespace {

constexpr std::uint64_t kWindow = 24;
constexpr std::uint64_t kWindows = 6;

LaoramConfig
baseConfig(bool encrypt, std::uint64_t seed)
{
    LaoramConfig cfg;
    cfg.base.numBlocks = 96;
    cfg.base.blockBytes = 64;
    cfg.base.payloadBytes = 32;
    cfg.base.encrypt = encrypt;
    cfg.base.seed = seed;
    cfg.superblockSize = 4;
    cfg.lookaheadWindow = kWindow;
    cfg.lookaheadHorizon = 0;
    return cfg;
}

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

void
fillPayloads(Laoram &engine, const LaoramConfig &cfg)
{
    std::vector<std::uint8_t> buf(cfg.base.payloadBytes);
    for (oram::BlockId id = 0; id < cfg.base.numBlocks; ++id) {
        for (std::size_t i = 0; i < buf.size(); ++i)
            buf[i] = static_cast<std::uint8_t>(id * 131 + i * 7);
        engine.writeBlock(id, buf);
    }
}

PipelineConfig
pipelineConfig()
{
    PipelineConfig pc;
    pc.windowAccesses = kWindow;
    pc.prepThreads = 2;
    pc.queueDepth = 2;
    return pc;
}

class KillRestore
    : public ::testing::TestWithParam<storage::BackendKind>
{
  protected:
    /** Start an iteration from no tree and no sidecar. */
    void
    cleanup()
    {
        std::remove(tree.c_str());
        std::remove(sidecar.c_str());
    }

    storage::StorageConfig
    persistentStorage(bool keepExisting) const
    {
        storage::StorageConfig sc;
        sc.kind = GetParam();
        sc.path = tree;
        sc.keepExisting = keepExisting;
        return sc;
    }

    const test::ScratchDir scratch;
    const std::string tree = scratch.file("kill.tree");
    const std::string sidecar = scratch.file("kill.ckpt");
};

TEST_P(KillRestore, RestoredRunFinishesByteIdentically)
{
    const std::uint64_t iters = diffIters();
    Rng pick(diffSeed() ^ 0xC0FFEE);
    for (std::uint64_t it = 0; it < iters; ++it) {
        const std::uint64_t seed = diffSeed() + it * 1009;
        const bool encrypt = (it % 2) == 1;
        const LaoramConfig cfg = baseConfig(encrypt, seed);
        const auto trace = randomTrace(
            kWindow * kWindows, cfg.base.numBlocks, seed + 17);
        // Die after a random number of fully served windows,
        // never 0 (nothing restored) and never all (nothing left).
        const std::uint64_t cut = 1 + pick.nextBounded(kWindows - 1);
        const std::string what = "iter " + std::to_string(it)
                                 + " cut " + std::to_string(cut)
                                 + (encrypt ? " enc" : " plain");
        cleanup();

        // Uninterrupted reference over DRAM (the determinism
        // contract makes backend choice invisible to served bytes).
        Laoram reference(cfg);
        fillPayloads(reference, cfg);
        BatchPipeline(reference, pipelineConfig()).run(trace);
        const EngineSnapshot snap = snapshotOf(reference);

        // The victim serves `cut` windows on a persistent tree,
        // checkpoints at the window boundary, and "dies" (engine
        // destroyed, storage unmapped — the sidecar and tree file
        // are all that survive).
        {
            LaoramConfig vcfg = cfg;
            vcfg.base.storage = persistentStorage(false);
            Laoram victim(vcfg);
            fillPayloads(victim, vcfg);
            const std::vector<oram::BlockId> prefix(
                trace.begin(), trace.begin() + cut * kWindow);
            BatchPipeline(victim, pipelineConfig()).run(prefix);
            ASSERT_EQ(victim.windowsServed(), cut) << what;
            victim.checkpointToFile(sidecar);
        }

        // Restore into a fresh engine over the reopened tree and
        // finish the trace: the remaining windows must carry the
        // original stream numbering (firstWindowIndex) so every
        // window-derived preprocessor path stream lines up.
        LaoramConfig rcfg = cfg;
        rcfg.base.storage = persistentStorage(true);
        rcfg.base.checkpoint.path = sidecar;
        rcfg.base.checkpoint.restore = true;
        Laoram restored(rcfg);
        ASSERT_EQ(restored.windowsServed(), cut) << what;

        std::vector<std::uint64_t> boundaries;
        const std::vector<oram::BlockId> suffix(
            trace.begin() + cut * kWindow, trace.end());
        PipelineConfig pc = pipelineConfig();
        pc.firstWindowIndex = restored.windowsServed();
        pc.windowBoundaryHook = [&](std::uint64_t w) {
            boundaries.push_back(w);
        };
        BatchPipeline(restored, pc).run(suffix);

        ASSERT_EQ(boundaries.size(), kWindows - cut) << what;
        for (std::size_t i = 0; i < boundaries.size(); ++i)
            EXPECT_EQ(boundaries[i], cut + i) << what;
        EXPECT_EQ(restored.windowsServed(), kWindows) << what;
        expectMatchesSnapshot(snap, restored, what);
    }
}

/** What the victim's boundary hook throws once it checkpointed. */
struct Killed
{
};

/** Every slot of @p engine's tree, decoded (plaintext trees only). */
std::vector<oram::StoredBlock>
treeOf(Laoram &engine)
{
    const oram::ServerStorage &storage = engine.storageForAudit();
    std::vector<oram::StoredBlock> slots(engine.geometry().totalSlots());
    for (std::uint64_t s = 0; s < slots.size(); ++s)
        storage.readSlot(s, slots[s]);
    return slots;
}

TEST_P(KillRestore, RestoredRunAtDefaultHorizonKeepsStashAndTree)
{
    // Two-slot buckets and a hot half of the block space keep the
    // stash non-empty at window boundaries, so the restored stash is
    // rebuilt from the sidecar, not empty.
    const std::uint64_t iters = diffIters();
    std::uint64_t killedWithStash = 0;
    for (std::uint64_t it = 0; it < iters; ++it) {
        const std::uint64_t seed = diffSeed() + it * 7919;
        LaoramConfig cfg = baseConfig(false, seed);
        cfg.lookaheadHorizon = kWholeStream;
        cfg.base.profile = oram::BucketProfile::uniform(2);
        cfg.batchAccesses = 12;
        constexpr std::uint64_t kLongWindows = 16;
        const auto trace = randomTrace(
            kWindow * kLongWindows, cfg.base.numBlocks / 2, seed + 17);
        const std::string what = "iter " + std::to_string(it);
        cleanup();

        Laoram reference(cfg);
        fillPayloads(reference, cfg);
        const PipelineReport full =
            BatchPipeline(reference, pipelineConfig()).run(trace);
        EXPECT_GT(full.wallLinkPassNs, 0.0) << what;
        const EngineSnapshot snap = snapshotOf(reference);
        const std::vector<oram::StoredBlock> refTree = treeOf(reference);

        // The victim serves the same stream and dies at the first
        // boundary (before the last) that leaves blocks in its stash.
        std::uint64_t cut = 0;
        {
            LaoramConfig vcfg = cfg;
            vcfg.base.storage = persistentStorage(false);
            Laoram victim(vcfg);
            fillPayloads(victim, vcfg);
            const auto hook = [&](std::uint64_t w) {
                if (victim.stashSize() == 0 && w + 2 < kLongWindows)
                    return;
                cut = w + 1;
                victim.checkpointToFile(sidecar);
                throw Killed{};
            };
            PipelineConfig pc = pipelineConfig();
            pc.windowBoundaryHook = hook;
            EXPECT_THROW(BatchPipeline(victim, pc).run(trace), Killed)
                << what;
            killedWithStash += victim.stashSize() > 0 ? 1 : 0;
        }

        LaoramConfig rcfg = cfg;
        rcfg.base.storage = persistentStorage(true);
        rcfg.base.checkpoint.path = sidecar;
        rcfg.base.checkpoint.restore = true;
        Laoram restored(rcfg);
        ASSERT_EQ(restored.windowsServed(), cut) << what;
        const std::vector<oram::BlockId> suffix(
            trace.begin() + cut * kWindow, trace.end());
        PipelineConfig pc = pipelineConfig();
        pc.firstWindowIndex = cut;
        BatchPipeline(restored, pc).run(suffix);
        expectMatchesSnapshot(snap, restored,
                              what + " cut " + std::to_string(cut));
        const std::vector<oram::StoredBlock> tree = treeOf(restored);
        ASSERT_EQ(tree.size(), refTree.size());
        for (std::uint64_t s = 0; s < tree.size(); ++s) {
            ASSERT_EQ(tree[s].id, refTree[s].id)
                << what << ": slot " << s << " holds another block";
            ASSERT_EQ(tree[s].leaf, refTree[s].leaf) << what;
            ASSERT_EQ(tree[s].payload, refTree[s].payload) << what;
        }
    }
    EXPECT_GT(killedWithStash, 0u)
        << "no iteration died with a non-empty stash";
}

INSTANTIATE_TEST_SUITE_P(
    PersistentBackends, KillRestore,
    ::testing::Values(storage::BackendKind::MmapFile,
                      storage::BackendKind::Remote),
    [](const ::testing::TestParamInfo<storage::BackendKind> &i) {
        return i.param == storage::BackendKind::MmapFile ? "Mmap"
                                                         : "Remote";
    });

} // namespace
} // namespace laoram::core
