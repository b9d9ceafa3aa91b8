#include "oram/tree_geometry.hh"

#include "util/bitops.hh"
#include "util/logging.hh"

namespace laoram::oram {

BucketProfile
BucketProfile::uniform(std::uint64_t z)
{
    LAORAM_ASSERT(z > 0, "bucket size must be positive");
    return BucketProfile{z, z};
}

BucketProfile
BucketProfile::fat(std::uint64_t leafZ)
{
    LAORAM_ASSERT(leafZ > 0, "bucket size must be positive");
    return BucketProfile{leafZ, 2 * leafZ};
}

BucketProfile
BucketProfile::linear(std::uint64_t leafZ, std::uint64_t rootZ)
{
    LAORAM_ASSERT(leafZ > 0 && rootZ >= leafZ,
                  "need rootZ >= leafZ > 0, got ", rootZ, " -> ", leafZ);
    return BucketProfile{leafZ, rootZ};
}

TreeGeometry::TreeGeometry(std::uint64_t numBlocks,
                           std::uint64_t blockBytes,
                           const BucketProfile &profile,
                           unsigned treetopLevels)
    : nBlocks(numBlocks), bBytes(blockBytes), prof(profile)
{
    LAORAM_ASSERT(numBlocks >= 1, "tree needs at least one block");
    // At least one leaf per block (PathORAM convention), minimum two
    // levels so that "path" is meaningful.
    L = numBlocks <= 2 ? 1 : ceilLog2(numBlocks);
    leaves = std::uint64_t{1} << L;
    nodes = (std::uint64_t{2} << L) - 1;
    topLevels = treetopLevels == kAutoTreetop ? numLevels() / 2
                                              : treetopLevels;
    LAORAM_ASSERT(topLevels <= L, "treetop of ", topLevels,
                  " levels would hold the leaf level ", L);

    levelSlotBase.resize(L + 2, 0);
    slots = 0;
    slotsPerPath = 0;
    for (unsigned l = 0; l <= L; ++l) {
        levelSlotBase[l] = slots;
        const std::uint64_t nodes_at_level = std::uint64_t{1} << l;
        slots += nodes_at_level * bucketSize(l);
        slotsPerPath += bucketSize(l);
    }
    levelSlotBase[L + 1] = slots;
}

std::uint64_t
TreeGeometry::bucketSize(unsigned level) const
{
    LAORAM_ASSERT(level <= L, "level ", level, " beyond leaf level ", L);
    if (prof.isUniform())
        return prof.leafZ;
    // Over a treetop the width goes to the client-held levels only.
    if (topLevels > 0)
        return level < topLevels ? 2 * prof.rootZ : prof.leafZ;
    // Linear decay from rootZ at level 0 to leafZ at level L, rounded
    // to the nearest integer (paper §V: 10,9,8,7,6,5 for 10->5 over six
    // levels).
    const std::uint64_t extra = prof.rootZ - prof.leafZ;
    const std::uint64_t depth_from_leaf = L - level;
    return prof.leafZ + (extra * depth_from_leaf + L / 2) / (L ? L : 1);
}

std::uint64_t
TreeGeometry::insecureBytes(std::uint64_t numBlocks,
                            std::uint64_t blockBytes)
{
    return numBlocks * blockBytes;
}

NodeIndex
TreeGeometry::pathNode(Leaf leaf, unsigned level) const
{
    LAORAM_ASSERT(leaf < leaves, "leaf ", leaf, " out of range");
    LAORAM_ASSERT(level <= L, "level out of range");
    // The ancestor of leaf node ((1<<L)-1 + leaf) at `level` is reached
    // by dropping the low (L - level) bits of the leaf index.
    return (leaf >> (L - level)) + ((std::uint64_t{1} << level) - 1);
}

unsigned
TreeGeometry::nodeLevel(NodeIndex node) const
{
    LAORAM_ASSERT(node < nodes, "node out of range");
    return floorLog2(node + 1);
}

std::uint64_t
TreeGeometry::nodeSlotBase(NodeIndex node) const
{
    const unsigned level = nodeLevel(node);
    const std::uint64_t first_at_level =
        (std::uint64_t{1} << level) - 1;
    return levelSlotBase[level]
        + (node - first_at_level) * bucketSize(level);
}

NodeIndex
TreeGeometry::slotNode(std::uint64_t slot) const
{
    LAORAM_ASSERT(slot < slots, "slot ", slot, " out of range");
    // Binary search the per-level slot bases, then divide by the
    // level's bucket size.
    unsigned lo = 0, hi = L;
    while (lo < hi) {
        const unsigned mid = (lo + hi + 1) / 2;
        if (levelSlotBase[mid] <= slot)
            lo = mid;
        else
            hi = mid - 1;
    }
    const unsigned level = lo;
    const std::uint64_t first_at_level =
        (std::uint64_t{1} << level) - 1;
    return first_at_level
        + (slot - levelSlotBase[level]) / bucketSize(level);
}

unsigned
TreeGeometry::commonLevel(Leaf a, Leaf b) const
{
    LAORAM_ASSERT(a < leaves && b < leaves, "leaf out of range");
    if (a == b)
        return L;
    // Highest differing bit position decides the divergence level.
    const unsigned msb = floorLog2(a ^ b);
    return L - (msb + 1);
}

} // namespace laoram::oram
