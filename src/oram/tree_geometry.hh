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
 *
 * The geometry also fixes the treetop: the top k levels, whose
 * buckets the client keeps in trusted memory (see PathIo).
 * Over a treetop (k > 0) a non-uniform profile spends its width where
 * it costs the server nothing: levels < k get 2 * rootZ slots (16 for
 * fat(4)) and levels >= k get leafZ, so every server-visible bucket
 * is uniform and only client memory absorbs the stash pressure the
 * fat tree exists for. At k = 0 it is §V's linear decay. A uniform
 * profile's shape does not depend on k. train-kaggle's 2^19-block
 * fat(4) tree at the default k = 10: 16 slots in each of the 1023
 * top buckets (16,368 slots), 40 server slots per path, 4,206,576
 * slots in all.
 */

#ifndef LAORAM_ORAM_TREE_GEOMETRY_HH
#define LAORAM_ORAM_TREE_GEOMETRY_HH

#include <cstdint>

#include "oram/types.hh"

namespace laoram::oram {

/** Treetop level count that resolves to floor(numLevels / 2). */
inline constexpr unsigned kAutoTreetop = ~0u;

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
     * @param treetopLevels levels kept in client memory: at most
     *                   leafLevel(), or kAutoTreetop (the default,
     *                   and every engine's default) for
     *                   floor(numLevels / 2), about sqrt(nodes) nodes
     *
     * The tree gets `numLeaves = 2^ceil(log2(numBlocks))` leaves, i.e.
     * at least one leaf per block as in the PathORAM paper (and as
     * required for Table I's 8x blow-up at Z=4).
     */
    TreeGeometry(std::uint64_t numBlocks, std::uint64_t blockBytes,
                 const BucketProfile &profile,
                 unsigned treetopLevels = kAutoTreetop);

    std::uint64_t numBlocks() const { return nBlocks; }
    std::uint64_t blockBytes() const { return bBytes; }
    const BucketProfile &profile() const { return prof; }

    unsigned leafLevel() const { return L; }
    unsigned numLevels() const { return L + 1; }
    std::uint64_t numLeaves() const { return leaves; }
    std::uint64_t numNodes() const { return nodes; }

    /** Top levels held in client memory (k, resolved; 0: none). */
    unsigned treetopLevels() const { return topLevels; }

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
    unsigned topLevels;       ///< treetop level count k
    std::uint64_t slots;      ///< total slots
    std::uint64_t slotsPerPath;
    /** slot offset of the first node of each level. */
    std::vector<std::uint64_t> levelSlotBase;
};

} // namespace laoram::oram

#endif // LAORAM_ORAM_TREE_GEOMETRY_HH
