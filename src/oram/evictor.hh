/**
 * @file
 * Path I/O: the two primitive server interactions every tree-based
 * engine is built from — reading a full path into the stash, and the
 * greedy deepest-first write-back that refills the same path from the
 * stash (PathORAM §3.3 / paper §II-C steps 2 and 5).
 *
 * Also hosts the tree auditor used by tests to verify the core
 * PathORAM invariant: every initialised real block lies either in the
 * stash or on the path named by its position-map leaf.
 */

#ifndef LAORAM_ORAM_EVICTOR_HH
#define LAORAM_ORAM_EVICTOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "oram/position_map.hh"
#include "oram/server_storage.hh"
#include "oram/stash.hh"
#include "oram/tree_geometry.hh"
#include "oram/types.hh"

namespace laoram::oram {

/**
 * Stateless-per-call path reader/writer bound to one (geometry,
 * storage, stash) triple. Engines own one and call it for every real
 * or dummy access.
 */
class PathIo
{
  public:
    PathIo(const TreeGeometry &geom, ServerStorage &storage, Stash &stash);

    /**
     * Read every slot on @p leaf's path; absorb real blocks into the
     * stash (their assigned leaf comes from the stored record).
     *
     * @return number of real blocks absorbed
     */
    std::uint64_t readPath(Leaf leaf);

    /**
     * Greedy write-back along @p leaf's path: each stash block is
     * bucketed by the deepest level at which its assigned path still
     * overlaps this path, then levels are filled leaf-to-root, unplaced
     * blocks spilling toward the root and finally staying in the stash.
     * Untaken slots are overwritten with encrypted dummies.
     *
     * @return number of real blocks written back
     */
    std::uint64_t writePath(Leaf leaf);

    /**
     * Batched read of several paths (a LAORAM superblock bin or a
     * PrORAM merge): each node in the union of the paths is read
     * exactly once — re-reading a shared prefix node would only fetch
     * slots the client already absorbed. An empty @p leaves reads
     * nothing.
     *
     * @return number of physical slots read (union size)
     */
    std::uint64_t readPathsBatched(const std::vector<Leaf> &leaves);

    /**
     * Batched greedy write-back over the union of several paths.
     * Nodes are filled deepest-level-first; blocks that do not fit
     * spill to their parent (which is always in the union, since path
     * unions are ancestor-closed) and ultimately back to the stash.
     * Writing the union once — instead of path-by-path — is required
     * for correctness: sequential per-path write-backs would overwrite
     * shared prefix nodes populated by the previous path. An empty
     * @p leaves writes nothing and leaves the stash as it is.
     *
     * @return number of physical slots written (union size)
     */
    std::uint64_t writePathsBatched(const std::vector<Leaf> &leaves);

  private:
    /** One node of a path union, with its write-back parent link. */
    struct UnionNode
    {
        NodeIndex node;
        std::uint64_t base; ///< first physical slot
        std::uint64_t z;    ///< bucket size
        std::size_t parent; ///< union position of the parent node
    };

    /**
     * The union of @p leaves' path nodes in descending heap order
     * (deepest level first, descending within a level): the greedy
     * write-back order. A pure function of the leaf set, so it is
     * cached on the sorted, de-duplicated leaves (unionLeaves) and a
     * batch's read and write-back build it once.
     */
    const std::vector<UnionNode> &
    pathUnion(const std::vector<Leaf> &leaves);

    /** Append every slot of @p leaf's path to slotScratch. */
    void gatherPathSlots(Leaf leaf);

    /**
     * Vectored fetch of slotScratch into the stash (one storage op);
     * returns the number of real blocks absorbed.
     */
    std::uint64_t absorbGatheredSlots();

    const TreeGeometry &geom;
    ServerStorage &storage;
    Stash &stash;

    // Scratch buffers reused across calls to avoid per-path allocation.
    std::vector<std::vector<BlockId>> byLevel;
    std::vector<BlockId> pool;
    std::vector<std::uint64_t> slotScratch;
    std::vector<StoredBlock> blockScratch;
    std::vector<ServerStorage::SlotWriteOp> writeScratch;
    std::vector<BlockId> evictedScratch;

    // The cached path union: its key, its nodes, and the union
    // position of each key leaf's node at each level
    // (unionPos[level * unionLeaves.size() + j]).
    std::vector<Leaf> unionLeaves;
    std::vector<UnionNode> unionNodes;
    std::vector<std::size_t> unionPos;
    std::vector<Leaf> leafScratch;
    // Batched write-back candidates, indexed by union position.
    std::vector<std::vector<BlockId>> candidates;
};

/**
 * Exhaustively audit the tree + stash against the position map.
 *
 * Checks, for every real block found in server storage: its stored
 * leaf matches the position map, and the node it occupies lies on that
 * leaf's path; and that no block appears twice (tree/tree or
 * tree/stash).
 *
 * @return empty string when consistent, else a description of the
 *         first violation (tests assert on empty)
 */
std::string auditTree(const TreeGeometry &geom,
                      const ServerStorage &storage,
                      const Stash &stash, const PositionMap &posmap);

} // namespace laoram::oram

#endif // LAORAM_ORAM_EVICTOR_HH
