#include "oram/pro_oram.hh"

#include <algorithm>
#include <vector>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace laoram::oram {

namespace {

/** ProOram's co-access recency window, in accesses. */
constexpr std::uint64_t kCoAccessWindow = 128;
/** Group counter value that fuses a group. */
constexpr int kMergeThreshold = 4;
/** Group counter value that splits a fused group. */
constexpr int kSplitThreshold = 0;
/** Group counter saturation cap. */
constexpr int kCounterCap = 8;

static_assert(kSplitThreshold < kMergeThreshold,
              "split threshold must sit below merge threshold");

} // namespace

StaticSuperblockOram::StaticSuperblockOram(
    const StaticSuperblockConfig &cfg)
    : TreeOramBase(cfg.base), sbSize(cfg.superblockSize)
{
    LAORAM_ASSERT(sbSize >= 1, "superblock size must be >= 1");
    // Static superblocks require group-consistent initial positions:
    // every member of an aligned group starts on the group's leaf.
    for (BlockId base = 0; base < this->cfg.numBlocks; base += sbSize) {
        const Leaf shared = posmap_.get(base);
        const BlockId end =
            std::min(base + sbSize, this->cfg.numBlocks);
        for (BlockId m = base + 1; m < end; ++m)
            posmap_.set(m, shared);
    }
    restoreAtConstructionIfConfigured();
}

std::string
StaticSuperblockOram::name() const
{
    return "PrORAM-static/S" + std::to_string(sbSize);
}

BlockId
StaticSuperblockOram::groupBase(BlockId id) const
{
    return (id / sbSize) * sbSize;
}

BlockId
StaticSuperblockOram::groupEnd(BlockId id) const
{
    return std::min(groupBase(id) + sbSize, cfg.numBlocks);
}

void
StaticSuperblockOram::access(BlockId id, AccessOp op,
                             const std::uint8_t *in, std::size_t len,
                             std::vector<std::uint8_t> *out)
{
    LAORAM_ASSERT(id < cfg.numBlocks, "block ", id, " out of range");
    mtr.recordLogicalAccess();

    // Superblock prefetch hit: the group fetch that brought this block
    // in already paid the path access; serve it from trusted memory
    // (the same accounting PrORAM and LAORAM bins use). With S == 1
    // there is no prefetching and the engine degenerates to exact
    // PathORAM behaviour.
    if (sbSize > 1) {
        if (StashEntry *entry = stash_.find(id)) {
            mtr.recordStashHit();
            entry->pinned = false; // pending access served
            applyOp(*entry, op, in, len, out);
            mtr.observeStashSize(stash_.size());
            return;
        }
    }

    // Only S == 1 gets here with the block stashed; PathORAM counts
    // that as a stash hit and still reads the path.
    const Leaf current = posmap_.get(id); // shared by the whole group
    if (stash_.contains(id))
        mtr.recordStashHit();
    pathIo_.readPaths(&current, 1);

    // The whole superblock moves together to one fresh uniform leaf;
    // members other than the accessed one stay pinned client-side
    // until their expected accesses arrive (prefetch retention).
    const Leaf next = randomLeaf();
    for (BlockId m = groupBase(id); m < groupEnd(id); ++m) {
        posmap_.set(m, next);
        StashEntry &entry = stash_.remap(m, next, cfg.payloadBytes);
        if (m == id)
            applyOp(entry, op, in, len, out);
        else if (sbSize > 1)
            entry.pinned = true;
    }

    pathIo_.writePaths(&current, 1);
    pathIo_.drain(rng, cfg.stashHighWater, cfg.stashLowWater);
    mtr.observeStashSize(stash_.size());
}

ProOram::ProOram(const ProOramConfig &cfg)
    : TreeOramBase(cfg.base), pcfg(cfg),
      groups(divCeil(cfg.base.numBlocks, cfg.groupSize))
{
    LAORAM_ASSERT(pcfg.groupSize >= 1, "group size must be >= 1");
    restoreAtConstructionIfConfigured();
}

std::string
ProOram::name() const
{
    return "PrORAM/S" + std::to_string(pcfg.groupSize);
}

BlockId
ProOram::groupBase(BlockId id) const
{
    return (id / pcfg.groupSize) * pcfg.groupSize;
}

BlockId
ProOram::groupEnd(BlockId id) const
{
    return std::min(groupBase(id) + pcfg.groupSize, cfg.numBlocks);
}

void
ProOram::mergeGroup(BlockId id, AccessOp op, const std::uint8_t *in,
                    std::size_t len, std::vector<std::uint8_t> *out)
{
    // Fusing a group requires co-locating members that currently live
    // on unrelated paths: fetch the union of member paths, then remap
    // everyone to one fresh leaf and write the union back.
    std::vector<Leaf> leaves;
    for (BlockId m = groupBase(id); m < groupEnd(id); ++m)
        leaves.push_back(posmap_.get(m));

    pathIo_.readPaths(leaves.data(), leaves.size());

    const Leaf next = randomLeaf();
    for (BlockId m = groupBase(id); m < groupEnd(id); ++m) {
        posmap_.set(m, next);
        StashEntry &entry = stash_.remap(m, next, cfg.payloadBytes);
        if (m == id)
            applyOp(entry, op, in, len, out);
        else
            entry.pinned = true; // retain for the predicted accesses
    }

    pathIo_.writePaths(leaves.data(), leaves.size());

    auto &g = groups[id / pcfg.groupSize];
    g.merged = true;
    ++nMerged;
    ++nMergeEvents;
}

void
ProOram::splitGroup(BlockId id)
{
    // Splitting is free at split time: members simply stop moving
    // together; each regains an independent leaf on its next access.
    // Retention pins are released — the prediction was withdrawn.
    auto &g = groups[id / pcfg.groupSize];
    g.merged = false;
    --nMerged;
    ++nSplitEvents;
    for (BlockId m = groupBase(id); m < groupEnd(id); ++m) {
        if (StashEntry *entry = stash_.find(m))
            entry->pinned = false;
    }
}

void
ProOram::access(BlockId id, AccessOp op, const std::uint8_t *in,
                std::size_t len, std::vector<std::uint8_t> *out)
{
    LAORAM_ASSERT(id < cfg.numBlocks, "block ", id, " out of range");
    mtr.recordLogicalAccess();
    ++accessIndex;

    auto &g = groups[id / pcfg.groupSize];

    // Spatial-locality counter (PrORAM §4): recent activity on the
    // group raises it, silence decays it.
    if (g.everAccessed
        && accessIndex - g.lastAccess <= kCoAccessWindow) {
        g.counter = std::min(g.counter + 1, kCounterCap);
    } else {
        g.counter = std::max(g.counter - 1, 0);
    }
    g.lastAccess = accessIndex;
    g.everAccessed = true;

    if (g.merged && g.counter <= kSplitThreshold)
        splitGroup(id);

    // Superblock prefetch hit on a fused group: served client-side,
    // exactly like a LAORAM bin member (the fetch that stashed it
    // already paid the oblivious access).
    if (g.merged) {
        if (StashEntry *entry = stash_.find(id)) {
            mtr.recordStashHit();
            entry->pinned = false; // pending access served
            applyOp(*entry, op, in, len, out);
            mtr.observeStashSize(stash_.size());
            return;
        }
    }

    if (!g.merged && g.counter >= kMergeThreshold) {
        // Merge performs the fetch of every member (including `id`)
        // and applies the pending operation, so the logical access
        // completes inside it.
        if (stash_.contains(id))
            mtr.recordStashHit();
        mergeGroup(id, op, in, len, out);
        pathIo_.drain(rng, cfg.stashHighWater, cfg.stashLowWater);
        mtr.observeStashSize(stash_.size());
        return;
    }

    const Leaf current = posmap_.get(id);
    if (stash_.contains(id))
        mtr.recordStashHit();
    pathIo_.readPaths(&current, 1);

    const Leaf next = randomLeaf();
    if (g.merged) {
        // Fused group: everyone shares `current` and moves together;
        // unaccessed members stay pinned for their predicted turns.
        for (BlockId m = groupBase(id); m < groupEnd(id); ++m) {
            posmap_.set(m, next);
            StashEntry &entry = stash_.remap(m, next, cfg.payloadBytes);
            if (m == id)
                applyOp(entry, op, in, len, out);
            else
                entry.pinned = true;
        }
    } else {
        posmap_.set(id, next);
        StashEntry &entry = stash_.remap(id, next, cfg.payloadBytes);
        applyOp(entry, op, in, len, out);
    }

    pathIo_.writePaths(&current, 1);
    pathIo_.drain(rng, cfg.stashHighWater, cfg.stashLowWater);
    mtr.observeStashSize(stash_.size());
}

void
ProOram::saveClientState(serde::Serializer &s) const
{
    TreeOramBase::saveClientState(s);
    s.u64(groups.size());
    for (const GroupState &g : groups) {
        s.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(
            g.counter)));
        s.u8(g.merged ? 1 : 0);
        s.u64(g.lastAccess);
        s.u8(g.everAccessed ? 1 : 0);
    }
    s.u64(accessIndex);
    s.u64(nMerged);
    s.u64(nMergeEvents);
    s.u64(nSplitEvents);
}

void
ProOram::restoreClientState(serde::Deserializer &d)
{
    TreeOramBase::restoreClientState(d);
    const std::uint64_t count = d.u64();
    if (count != groups.size())
        throw serde::SnapshotError(
            "PrORAM snapshot covers " + std::to_string(count)
            + " groups but this engine has "
            + std::to_string(groups.size()));
    for (GroupState &g : groups) {
        g.counter = static_cast<int>(
            static_cast<std::int64_t>(d.u64()));
        g.merged = d.u8() != 0;
        g.lastAccess = d.u64();
        g.everAccessed = d.u8() != 0;
    }
    accessIndex = d.u64();
    nMerged = d.u64();
    nMergeEvents = d.u64();
    nSplitEvents = d.u64();
}

} // namespace laoram::oram
