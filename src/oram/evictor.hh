/**
 * @file
 * Path I/O: every tree path the PathORAM-family engines touch is
 * read, written back and dummy-evicted here, and charged to the
 * engine's TrafficMeter here (PathORAM §3.3 / paper §II-C steps 2 and
 * 5, §II-E). A single path is the one-leaf case of a path union — the
 * paper's "PathORAM is LAORAM with superblock size 1" — so there is
 * one union read, one greedy union write-back and one bounded dummy
 * drain, and one access body around them (PathIo::access) that every
 * engine access, LAORAM batch and recursive map level runs.
 *
 * The trusted treetop (the top k = geometry's treetopLevels() levels,
 * Ren et al., ISCA 2013) is client state, kept here rather than in
 * ServerStorage: each treetop slot owns its block as a stash node
 * taken out of the stash map (Stash::Node). A union read gives the
 * blocks of its treetop buckets back to the stash and a write-back
 * takes the blocks it assigns to treetop slots, one hash-node insert
 * or extract each: no payload copy, no encode or decode and no
 * storage op. Only the levels >= k reach the server, in whole
 * buckets, so the adversary sees the same stream as before the
 * treetop existed minus its slots.
 *
 * Also hosts the §II-E drain policy that PathIo and RingORAM share,
 * and the tree auditor used by tests to verify the core PathORAM
 * invariant: every initialised real block lies either in the stash or
 * on the path named by its position-map leaf.
 */

#ifndef LAORAM_ORAM_EVICTOR_HH
#define LAORAM_ORAM_EVICTOR_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mem/traffic_meter.hh"
#include "oram/position_map.hh"
#include "oram/server_storage.hh"
#include "oram/stash.hh"
#include "oram/tree_geometry.hh"
#include "oram/types.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace laoram::oram {

/**
 * Path reader/writer bound to one (geometry, storage, stash, meter)
 * quadruple. Engines own one and route every real or dummy path
 * access through it.
 */
class PathIo
{
  public:
    /**
     * Dummy accesses one drain() may issue. With a pathological
     * configuration (tree capacity below the working set) the stash
     * cannot drain; the burst stops here instead of spinning forever.
     */
    static constexpr std::uint64_t kMaxDummiesPerBurst = 100000;

    PathIo(const TreeGeometry &geom, ServerStorage &storage, Stash &stash,
           mem::TrafficMeter &meter);

    /**
     * Read the union of @p n paths (one path, a LAORAM batch or a
     * PrORAM merge) into the stash: each node in the union is read
     * exactly once — re-reading a shared prefix node would only fetch
     * slots the client already absorbed. Charges one path read per
     * distinct leaf and the union's server slots and bytes; treetop
     * buckets are client memory, cost no traffic and only give
     * their blocks back to the stash. Zero leaves read nothing and
     * charge nothing.
     *
     * @return number of server slots read (union size below the
     *         treetop)
     */
    std::uint64_t readPaths(const Leaf *leaves, std::size_t n);

    /**
     * Greedy write-back over the union of @p n paths. Each unpinned
     * stash block starts at the deepest union node its own path
     * shares; nodes are filled deepest-level-first, and blocks that do
     * not fit spill to their parent (which is always in the union,
     * since path unions are ancestor-closed) and ultimately stay in
     * the stash. Untaken server slots become encrypted dummies; a
     * block assigned to a treetop slot is taken out of the stash
     * into it (the union's treetop slots are empty after its read).
     * Writing the union once — instead of path-by-path — is required
     * for correctness: sequential per-path write-backs would
     * overwrite shared prefix nodes populated by the previous path.
     * Charges one path write per distinct leaf and the union's server
     * slots and bytes, as readPaths does. Zero leaves write nothing
     * and leave the stash as it is.
     *
     * @return number of server slots written (union size below the
     *         treetop)
     */
    std::uint64_t writePaths(const Leaf *leaves, std::size_t n);

    /**
     * Background eviction (§II-E, see drainStash): each dummy access
     * reads and writes back a uniform path from @p rng, with no
     * remap, and is charged as one dummy read.
     *
     * @return number of dummy accesses issued
     */
    std::uint64_t drain(Rng &rng, std::uint64_t highWater,
                        std::uint64_t lowWater);

    /**
     * The PathORAM access around one path union (paper §II-C, §II-E),
     * the one body every PathIo tree's access runs: read the union of
     * the @p n paths at @p leaves, call @p remap(), which moves the
     * accessed blocks in the stash to their next leaves and applies
     * the operation, write the union back and drain() the stash with
     * @p rng. @p remap runs before the write-back, which may evict
     * what it touched to the tree. Even a stash-resident block reads
     * its paths, so the server-visible pattern stays independent of
     * stash state.
     */
    template <typename Remap>
    void
    access(const Leaf *leaves, std::size_t n, Rng &rng,
           std::uint64_t highWater, std::uint64_t lowWater, Remap &&remap)
    {
        readPaths(leaves, n);
        remap();
        writePaths(leaves, n);
        drain(rng, highWater, lowWater);
    }

    /**
     * The drain memory (the stash size the last capped burst gave up
     * at) steers later drains and the treetop slots hold blocks, so
     * both are trusted client state: they travel in the snapshot
     * after the stash, each slot as its block id (kInvalidBlock when
     * empty) and an occupant's StashEntry fields. restore() must run
     * after the stash's; it throws serde::SnapshotError for a table
     * of another size or for a block held twice (by the stash or by
     * two slots).
     */
    void save(serde::Serializer &s) const;
    void restore(serde::Deserializer &d);

    /** The treetop slot table: slot s's block, empty when none. */
    const std::vector<Stash::Node> &topSlots() const { return top; }

    friend std::string
    auditTree(const PathIo &io,
              const std::function<Leaf(BlockId)> &leafOf);

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
    const std::vector<UnionNode> &pathUnion(const Leaf *leaves,
                                            std::size_t n);

    /** Unmetered union read; returns the server slots read. */
    std::uint64_t fetchUnion(const Leaf *leaves, std::size_t n);

    /** Unmetered union write-back; returns the server slots written. */
    std::uint64_t evictUnion(const Leaf *leaves, std::size_t n);

    const TreeGeometry &geom;
    ServerStorage &storage;
    Stash &stash;
    mem::TrafficMeter &meter;

    // Scratch buffers reused across calls to avoid per-path allocation.
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
    // Write-back candidates, indexed by union position.
    std::vector<std::vector<BlockId>> candidates;

    /** Treetop slot table: slots [0, levelFirstSlot(k)). */
    std::vector<Stash::Node> top;

    /** Stash size the last capped burst stopped at (0: none, or the
     *  stash has since reached the low water). */
    std::uint64_t gaveUpAt = 0;
};

/**
 * The §II-E background-eviction policy: once the stash exceeds
 * @p highWater, drop every retention pin and issue @p dummyAccess()
 * calls until the stash is down to @p lowWater, at most
 * PathIo::kMaxDummiesPerBurst of them.
 *
 * A burst that hits the cap records the stash size it gave up at in
 * @p gaveUpAt: dummies never remap, so while the position map stands
 * they cannot get the stash below it. Later calls issue no dummies
 * until the stash grows past that size, then drain back down to it
 * rather than to @p lowWater. Once the stash is at @p lowWater or
 * below when drainStash() is called, the memory is dropped (0).
 *
 * @return number of dummy accesses issued
 */
template <typename DummyAccess>
std::uint64_t
drainStash(Stash &stash, std::uint64_t highWater, std::uint64_t lowWater,
           std::uint64_t &gaveUpAt, DummyAccess &&dummyAccess)
{
    if (stash.size() <= lowWater)
        gaveUpAt = 0; // got there by itself: nothing holds it up now
    if (stash.size() <= highWater)
        return 0;

    // Capacity trumps retention: prefetch pins are dropped before the
    // client starts paying for dummy accesses.
    stash.unpinAll();
    if (stash.size() <= gaveUpAt)
        return 0; // the last burst could not get below this either

    // Aim where the last burst stopped instead of paying the whole cap
    // again.
    const std::uint64_t target = std::max(lowWater, gaveUpAt);
    std::uint64_t issued = 0;
    while (stash.size() > target && issued < PathIo::kMaxDummiesPerBurst) {
        dummyAccess();
        ++issued;
    }
    if (stash.size() > target) {
        gaveUpAt = stash.size();
        warn("background eviction could not drain stash below ",
             target, " (still ", stash.size(), " blocks) after ",
             issued, " dummy accesses; later bursts wait for the "
             "stash to grow past ", gaveUpAt, " and stop there");
    }
    return issued;
}

/**
 * Exhaustively audit @p io's tree + stash against the leaves
 * @p leafOf reports (a flat position map, or a recursive map's peek).
 *
 * Checks that the storage's occupancy bitmap matches the tree
 * (ServerStorage::auditOccupancy); then, for every real block in a
 * server or treetop slot: its leaf matches @p leafOf, and the node it
 * occupies lies on that leaf's path; that no block appears twice
 * (tree/tree, tree/stash) and that every stash entry's leaf matches
 * @p leafOf.
 *
 * @return empty string when consistent, else a description of the
 *         first violation (tests assert on empty)
 */
std::string auditTree(const PathIo &io,
                      const std::function<Leaf(BlockId)> &leafOf);

/** auditTree against a flat position map. */
inline std::string
auditTree(const PathIo &io, const PositionMap &posmap)
{
    return auditTree(io, [&](BlockId id) { return posmap.get(id); });
}

} // namespace laoram::oram

#endif // LAORAM_ORAM_EVICTOR_HH
