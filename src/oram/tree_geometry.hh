/**
 * @file
 * Storage-tree geometry: node indexing, path navigation, bucket-size
 * profiles (uniform PathORAM buckets and the paper's fat tree), and
 * memory accounting (reproduces Table I).
 *
 * Nodes are kept in standard heap order: root is node 0 at level 0,
 * children of node i are 2i+1 and 2i+2, leaves occupy level L
 * (`leafLevel()`). Leaf `f`'s path is the node set
 * { ancestor(f, l) : l = 0..L }.
 *
 * The fat-tree profile follows §V of the paper: bucket size decays
 * linearly from `rootZ` at the root to `leafZ` at the leaves (the
 * paper's example: leaf 5, root 10, six levels → 10,9,8,7,6,5). The
 * memory-neutral study (§VIII-C) uses the general (rootZ, leafZ) form,
 * e.g. 9→5 against a uniform Z=6 tree.
 */

#ifndef LAORAM_ORAM_TREE_GEOMETRY_HH
#define LAORAM_ORAM_TREE_GEOMETRY_HH

#include <cstdint>

#include "oram/types.hh"

namespace laoram::oram {

/** Bucket-size profile: uniform (classic PathORAM) or linear fat tree. */
struct BucketProfile
{
    std::uint64_t leafZ = 4; ///< bucket size at the leaf level
    std::uint64_t rootZ = 4; ///< bucket size at the root (== leafZ when uniform)

    /** Classic PathORAM: every bucket holds @p z blocks. */
    static BucketProfile uniform(std::uint64_t z);

    /**
     * Paper's fat tree: root bucket `2z` decaying linearly to leaf
     * bucket `z`.
     */
    static BucketProfile fat(std::uint64_t leafZ);

    /** General linear profile for the memory-neutral ablation. */
    static BucketProfile linear(std::uint64_t leafZ, std::uint64_t rootZ);

    bool isUniform() const { return leafZ == rootZ; }
};

/**
 * Immutable description of one ORAM tree; all engines and the server
 * storage consult it for indexing and sizing.
 */
class TreeGeometry
{
  public:
    /**
     * @param numBlocks  logical blocks (embedding entries) to protect
     * @param blockBytes logical size of one block, used for *byte
     *                   accounting* (a 128 B DLRM row, a 4 KiB XLM-R
     *                   row); independent of the payload bytes actually
     *                   materialised in simulation
     * @param profile    bucket-size profile
     *
     * The tree gets `numLeaves = 2^ceil(log2(numBlocks))` leaves, i.e.
     * at least one leaf per block as in the PathORAM paper (and as
     * required for Table I's 8x blow-up at Z=4).
     */
    TreeGeometry(std::uint64_t numBlocks, std::uint64_t blockBytes,
                 const BucketProfile &profile);

    std::uint64_t numBlocks() const { return nBlocks; }
    std::uint64_t blockBytes() const { return bBytes; }
    const BucketProfile &profile() const { return prof; }

    unsigned leafLevel() const { return L; }
    unsigned numLevels() const { return L + 1; }
    std::uint64_t numLeaves() const { return leaves; }
    std::uint64_t numNodes() const { return nodes; }

    /** Bucket size at @p level (root = level 0). */
    std::uint64_t bucketSize(unsigned level) const;

    /** Total physical block slots in the tree. */
    std::uint64_t totalSlots() const { return slots; }

    /** Slots on one root-to-leaf path (sum of per-level bucket sizes). */
    std::uint64_t pathSlots() const { return slotsPerPath; }

    /** Logical bytes moved when one full path is read or written. */
    std::uint64_t pathBytes() const { return slotsPerPath * bBytes; }

    /** Server memory requirement of this tree (Table I columns). */
    std::uint64_t serverBytes() const { return slots * bBytes; }

    /** Memory of an unprotected flat table (Table I "Insecure"). */
    static std::uint64_t insecureBytes(std::uint64_t numBlocks,
                                       std::uint64_t blockBytes);

    /** Heap index of the node on @p leaf's path at @p level. */
    NodeIndex pathNode(Leaf leaf, unsigned level) const;

    /** Level of heap node @p node. */
    unsigned nodeLevel(NodeIndex node) const;

    /** Index of the first physical slot of @p node. */
    std::uint64_t nodeSlotBase(NodeIndex node) const;

    /**
     * First physical slot of level @p level (0..numLevels()); slots
     * [0, levelFirstSlot(k)) are exactly the top k levels' buckets.
     */
    std::uint64_t
    levelFirstSlot(unsigned level) const
    {
        return levelSlotBase[level];
    }

    /** Inverse of nodeSlotBase: the node owning physical slot @p slot. */
    NodeIndex slotNode(std::uint64_t slot) const;

    /**
     * Deepest level at which the paths of @p a and @p b overlap
     * (== leafLevel() when a == b, 0 when they diverge at the root).
     */
    unsigned commonLevel(Leaf a, Leaf b) const;

  private:
    std::uint64_t nBlocks;
    std::uint64_t bBytes;
    BucketProfile prof;
    unsigned L;               ///< leaf level
    std::uint64_t leaves;     ///< 2^L
    std::uint64_t nodes;      ///< 2^(L+1) - 1
    std::uint64_t slots;      ///< total slots
    std::uint64_t slotsPerPath;
    /** slot offset of the first node of each level. */
    std::vector<std::uint64_t> levelSlotBase;
};

} // namespace laoram::oram

#endif // LAORAM_ORAM_TREE_GEOMETRY_HH
