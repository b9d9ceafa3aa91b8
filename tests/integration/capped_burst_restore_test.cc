/**
 * @file
 * Kill-and-restore right after a capped dummy burst.
 *
 * A background-eviction burst that hits PathIo::kMaxDummiesPerBurst
 * remembers the stash size it gave up at, and that memory steers
 * every later drain (see PathIo::drain). It is trusted client state:
 * a PrORAM engine checkpointed right after its first capped burst and
 * restored over the reopened tree must finish the trace exactly like
 * the run that never stopped — same dummy reads, stash, position map
 * and simulated clock.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "../common/scratch_dir.hh"
#include "oram/evictor.hh"
#include "oram/pro_oram.hh"
#include "util/rng.hh"

namespace laoram::oram {
namespace {

constexpr std::uint64_t kBlocks = 1024;
constexpr std::uint64_t kAccesses = 20000;

/**
 * A tight PrORAM: Z=2 buckets and low water marks, so merged groups
 * overflow their shared paths and dummy bursts hit the cap.
 */
ProOramConfig
tightConfig(const std::string &tree)
{
    ProOramConfig cfg;
    cfg.base.numBlocks = kBlocks;
    cfg.base.blockBytes = 64;
    cfg.base.payloadBytes = 0;
    cfg.base.seed = 3;
    cfg.base.profile = BucketProfile::uniform(2);
    cfg.base.stashHighWater = 8;
    cfg.base.stashLowWater = 2;
    cfg.base.storage.kind = storage::BackendKind::MmapFile;
    cfg.base.storage.path = tree;
    cfg.groupSize = 4;
    return cfg;
}

/** Short sequential runs from random starts: PrORAM merges them. */
std::vector<BlockId>
sequentialRunsTrace(std::uint64_t accesses, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<BlockId> trace;
    trace.reserve(accesses);
    while (trace.size() < accesses) {
        const BlockId start = rng.nextBounded(kBlocks);
        const std::uint64_t len = 1 + rng.nextBounded(8);
        for (std::uint64_t i = 0; i < len && trace.size() < accesses;
             ++i)
            trace.push_back((start + i) % kBlocks);
    }
    return trace;
}

void
expectSameClientState(const ProOram &a, const ProOram &b)
{
    const mem::TrafficCounters &ca = a.meter().counters();
    const mem::TrafficCounters &cb = b.meter().counters();
    for (const mem::TrafficCounters::Field &f : ca.kFields)
        EXPECT_EQ(ca.*f.member, cb.*f.member) << f.name;
    EXPECT_DOUBLE_EQ(a.meter().clock().nanoseconds(),
                     b.meter().clock().nanoseconds());
    EXPECT_EQ(a.stashSize(), b.stashSize());
    EXPECT_EQ(a.totalMerges(), b.totalMerges());
    EXPECT_EQ(a.totalSplits(), b.totalSplits());
    for (BlockId id = 0; id < kBlocks; ++id)
        ASSERT_EQ(a.posmapForAudit().get(id), b.posmapForAudit().get(id))
            << "posmap diverges at block " << id;
}

TEST(CappedBurstRestore, RestoredRunFinishesLikeUninterruptedRun)
{
    const test::ScratchDir scratch;
    const std::string refTree = scratch.file("ref.tree");
    const std::string tree = scratch.file("victim.tree");
    const std::string sidecar = scratch.file("victim.ckpt");
    const std::vector<BlockId> trace =
        sequentialRunsTrace(kAccesses, 11);

    ProOram reference(tightConfig(refTree));
    for (BlockId id : trace)
        reference.touch(id);

    // The victim dies right after the access whose drain hit the cap.
    std::uint64_t killAt = trace.size();
    {
        ProOram victim(tightConfig(tree));
        for (std::uint64_t i = 0; i < trace.size(); ++i) {
            const std::uint64_t before =
                victim.meter().counters().dummyReads;
            victim.touch(trace[i]);
            if (victim.meter().counters().dummyReads - before
                >= PathIo::kMaxDummiesPerBurst) {
                killAt = i + 1;
                break;
            }
        }
        victim.checkpointToFile(sidecar);
    }
    ASSERT_LT(killAt, trace.size()) << "no capped burst to kill after";

    ProOramConfig rcfg = tightConfig(tree);
    rcfg.base.storage.keepExisting = true;
    rcfg.base.checkpoint.path = sidecar;
    rcfg.base.checkpoint.restore = true;
    ProOram restored(rcfg);
    for (std::uint64_t i = killAt; i < trace.size(); ++i)
        restored.touch(trace[i]);

    expectSameClientState(reference, restored);
    EXPECT_EQ(auditTree(restored.pathIoForAudit(), restored.posmapForAudit()),
              "");
}

} // namespace
} // namespace laoram::oram
