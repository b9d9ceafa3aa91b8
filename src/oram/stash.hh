/**
 * @file
 * Client-side stash: trusted overflow storage for blocks that could not
 * be written back into the tree (paper §II-E). Lives in GPU HBM in the
 * paper's deployment; accesses to it are invisible to the adversary.
 *
 * The trusted treetop (the top k tree levels, Ren et al., ISCA 2013)
 * is client state of the same kind, so its blocks are stash entries
 * too, held outside the map: PathIo take()s the hash node of a block
 * it evicts into a treetop slot and keeps it in that slot, and give()s
 * it back when a path read crosses the slot. Neither move copies the
 * leaf or payload or allocates. size(), contains(), find() and
 * iteration see only the map, the blocks that overflowed the tree:
 * the quantity §II-E's drain and the stash peak are about.
 */

#ifndef LAORAM_ORAM_STASH_HH
#define LAORAM_ORAM_STASH_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "oram/types.hh"
#include "util/serde.hh"

namespace laoram::oram {

/** A block resident in the stash. */
struct StashEntry
{
    Leaf leaf = 0;
    /**
     * Pinned entries are retained client-side and skipped by
     * write-back eviction — used by superblock engines to keep a
     * prefetched group resident until its pending accesses arrive.
     */
    bool pinned = false;
    std::vector<std::uint8_t> payload;

    /** Snapshot fields (leaf, pin, payload); the id is the caller's. */
    void save(serde::Serializer &s) const;
    void restore(serde::Deserializer &d);
};

/**
 * Hash-map stash with the iteration support the greedy evictor needs.
 */
class Stash
{
    using Map = std::unordered_map<BlockId, StashEntry>;

  public:
    /** A detached entry: the block id (key()) and its StashEntry
     *  (mapped()), or empty. */
    using Node = Map::node_type;

    /** @return entry for @p id or nullptr. */
    StashEntry *find(BlockId id);
    const StashEntry *find(BlockId id) const;

    /**
     * Insert or overwrite @p id. Returns the (possibly pre-existing)
     * entry.
     */
    StashEntry &put(BlockId id, Leaf leaf,
                    std::vector<std::uint8_t> payload);

    /**
     * The entry of @p id with its leaf set to @p leaf, created with
     * @p payloadBytes zero bytes on first touch (blocks are lazily
     * initialised: an unwritten block reads as zeros; 0 keeps
     * pattern-only simulations payload-less).
     */
    StashEntry &remap(BlockId id, Leaf leaf, std::uint64_t payloadBytes);

    void erase(BlockId id);
    bool contains(BlockId id) const
    {
        return entries.find(id) != entries.end();
    }

    /** Clear every pin (used when stash pressure trumps retention). */
    void unpinAll();

    /** Detach entry @p id, which must be stashed, without a copy. */
    Node take(BlockId id);

    /** Put a taken entry back; its id must not be stashed. */
    void give(Node node);

    std::uint64_t size() const { return entries.size(); }
    bool empty() const { return entries.empty(); }

    /** Iterate all (id, entry) pairs; mutation of leaves is allowed. */
    auto begin() { return entries.begin(); }
    auto end() { return entries.end(); }
    auto begin() const { return entries.begin(); }
    auto end() const { return entries.end(); }

    /** Approximate client memory held by stash blocks. */
    std::uint64_t residentBytes(std::uint64_t payloadBytes) const
    {
        return size() * (sizeof(BlockId) + sizeof(Leaf) + payloadBytes);
    }

    /**
     * Checkpoint support: the entries sorted by block id, so a given
     * stash state always produces identical snapshot bytes regardless
     * of hash-map iteration order. restore() replaces the current
     * contents.
     */
    void save(serde::Serializer &s) const;
    void restore(serde::Deserializer &d);

  private:
    Map entries;
};

} // namespace laoram::oram

#endif // LAORAM_ORAM_STASH_HH
