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

    const auto apply = [&](StashEntry &entry) {
        applyOp(entry, op, in, len, out);
    };
    if (!g.merged && g.counter >= kMergeThreshold) {
        // Fusing co-locates members that live on unrelated paths: read
        // the union of their paths and move them all to one fresh
        // leaf. The logical access completes inside the merge.
        std::vector<Leaf> leaves;
        for (BlockId m = groupBase(id); m < groupEnd(id); ++m)
            leaves.push_back(posmap_.get(m));
        accessPaths(id, groupBase(id), groupEnd(id), leaves.data(),
                    leaves.size(), apply);
        g.merged = true;
        ++nMerged;
        ++nMergeEvents;
        return;
    }

    // A fused group shares `current` and moves together; unaccessed
    // members stay pinned for their predicted turns.
    const Leaf current = posmap_.get(id);
    if (g.merged)
        accessPaths(id, groupBase(id), groupEnd(id), &current, 1, apply);
    else
        accessPaths(id, id, id + 1, &current, 1, apply);
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
