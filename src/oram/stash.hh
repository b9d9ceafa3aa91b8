/**
 * @file
 * Client-side stash: trusted overflow storage for blocks that could not
 * be written back into the tree (paper §II-E). Lives in GPU HBM in the
 * paper's deployment; accesses to it are invisible to the adversary.
 *
 * The trusted treetop (the top k tree levels, Ren et al., ISCA 2013)
 * is client state of the same kind, so its blocks live here too, as
 * *parked* entries: PathIo parks a block it evicts into a treetop slot
 * and unparks it when a path read crosses that slot. Both moves
 * relink the entry's hash node between two maps, so a block's leaf and
 * payload never move and nothing is allocated. size(), contains(),
 * find() and iteration see only the loose stash, the blocks that
 * overflowed the tree: the quantity §II-E's drain and the stash peak
 * are about.
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
};

/**
 * Hash-map stash with the iteration support the greedy evictor needs.
 */
class Stash
{
  public:
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

    /** Move loose entry @p id to the parked map. */
    void park(BlockId id);

    /** Move parked entry @p id back into the loose stash. */
    void unpark(BlockId id);

    /** @return parked entry for @p id or nullptr. */
    const StashEntry *findParked(BlockId id) const;

    std::uint64_t parkedSize() const { return parked.size(); }

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
     * Checkpoint support: the loose entries, then the parked ones,
     * each sorted by block id, so a given stash state always produces
     * identical snapshot bytes regardless of hash-map iteration
     * order. restore() replaces the current contents.
     */
    void save(serde::Serializer &s) const;
    void restore(serde::Deserializer &d);

  private:
    std::unordered_map<BlockId, StashEntry> entries;
    std::unordered_map<BlockId, StashEntry> parked;
};

} // namespace laoram::oram

#endif // LAORAM_ORAM_STASH_HH
