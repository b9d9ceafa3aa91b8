#include "oram/evictor.hh"

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <unordered_set>

namespace laoram::oram {

PathIo::PathIo(const TreeGeometry &geom, ServerStorage &storage,
               Stash &stash, mem::TrafficMeter &meter)
    : geom(geom), storage(storage), stash(stash), meter(meter),
      top(geom.levelFirstSlot(geom.treetopLevels()))
{
}

const std::vector<PathIo::UnionNode> &
PathIo::pathUnion(const Leaf *leaves, std::size_t n)
{
    leafScratch.assign(leaves, leaves + n);
    std::sort(leafScratch.begin(), leafScratch.end());
    leafScratch.erase(std::unique(leafScratch.begin(), leafScratch.end()),
                      leafScratch.end());
    if (leafScratch == unionLeaves)
        return unionNodes;
    unionLeaves.swap(leafScratch);

    // Heap indices grow with level and, within a level, with the leaf,
    // so walking levels deepest-first and the sorted leaves backwards
    // yields descending node order with shared nodes adjacent.
    const std::size_t k = unionLeaves.size();
    const unsigned levels = geom.numLevels();
    unionNodes.clear();
    unionPos.resize(levels * k);
    for (unsigned level = levels; level-- > 0;) {
        const std::uint64_t z = geom.bucketSize(level);
        for (std::size_t j = k; j-- > 0;) {
            const NodeIndex node = geom.pathNode(unionLeaves[j], level);
            if (unionNodes.empty() || unionNodes.back().node != node)
                unionNodes.push_back({node, geom.nodeSlotBase(node), z, 0});
            unionPos[level * k + j] = unionNodes.size() - 1;
        }
    }
    for (unsigned level = 1; level < levels; ++level)
        for (std::size_t j = 0; j < k; ++j)
            unionNodes[unionPos[level * k + j]].parent =
                unionPos[(level - 1) * k + j];
    return unionNodes;
}

std::uint64_t
PathIo::fetchUnion(const Leaf *leaves, std::size_t n)
{
    // Server buckets are read whole; a treetop bucket's blocks are
    // given back to the stash, leaving its slots empty.
    slotScratch.clear();
    for (const UnionNode &u : pathUnion(leaves, n)) {
        for (std::uint64_t s = u.base; s < u.base + u.z; ++s) {
            if (s >= top.size())
                slotScratch.push_back(s);
            else if (!top[s].empty())
                stash.give(std::move(top[s]));
        }
    }

    // One vectored storage op; real blocks join the stash with the
    // leaf their stored record carries.
    storage.readSlots(slotScratch.data(), slotScratch.size(),
                      blockScratch);
    for (StoredBlock &b : blockScratch) {
        if (b.isDummy())
            continue;
        // A block must never be duplicated between tree and stash.
        LAORAM_ASSERT(!stash.contains(b.id), "block ", b.id,
                      " found in tree while stashed");
        stash.put(b.id, b.leaf, std::move(b.payload));
    }
    return slotScratch.size();
}

std::uint64_t
PathIo::evictUnion(const Leaf *leaves, std::size_t n)
{
    const std::vector<UnionNode> &nodes = pathUnion(leaves, n);
    const std::size_t k = unionLeaves.size();
    if (candidates.size() < nodes.size())
        candidates.resize(nodes.size());
    for (std::size_t p = 0; p < nodes.size(); ++p)
        candidates[p].clear();

    // Seed every stash block at the deepest union node it may occupy:
    // the node realising max over leaves of commonLevel(block, leaf).
    // The maximiser shares the longest bit-prefix with the block's
    // leaf, so for a sorted leaf set it is always a lower_bound
    // neighbour — O(log k) per block instead of O(k). Pinned entries
    // are retained client-side.
    for (const auto &[id, entry] : stash) {
        if (entry.pinned)
            continue;
        const std::size_t it = static_cast<std::size_t>(
            std::lower_bound(unionLeaves.begin(), unionLeaves.end(),
                             entry.leaf)
            - unionLeaves.begin());
        std::size_t best = it < k ? it : it - 1;
        unsigned best_level =
            geom.commonLevel(entry.leaf, unionLeaves[best]);
        if (it < k && it > 0) {
            const unsigned cl =
                geom.commonLevel(entry.leaf, unionLeaves[it - 1]);
            if (cl > best_level) {
                best_level = cl;
                best = it - 1;
            }
        }
        candidates[unionPos[best_level * k + best]].push_back(id);
    }

    // Deepest-first fill; leftovers spill to the parent node, which is
    // in the union because path unions are ancestor-closed. A node
    // takes its candidates in id order, not in the stash's hash-map
    // order, so placements (and which blocks stay stashed) are a
    // function of the stash's contents alone: a restored stash, rebuilt
    // in another insertion order, evicts exactly as the original. The
    // server buckets are written as one vectored storage op; their
    // stash entries are erased after it so their payload pointers stay
    // valid for the write. Blocks placed in treetop slots are taken
    // into them at once, which copies no entry.
    writeScratch.clear();
    evictedScratch.clear();
    for (std::size_t p = 0; p < nodes.size(); ++p) {
        const UnionNode &u = nodes[p];
        std::vector<BlockId> &pending = candidates[p];
        std::sort(pending.begin(), pending.end());
        const std::uint64_t filled =
            std::min<std::uint64_t>(u.z, pending.size());
        if (u.base < top.size()) {
            for (std::uint64_t s = 0; s < filled; ++s) {
                LAORAM_ASSERT(top[u.base + s].empty(), "treetop slot ",
                              u.base + s,
                              " written back before its union read");
                top[u.base + s] = stash.take(pending[s]);
            }
        } else {
            // A server bucket is written whole.
            for (std::uint64_t s = 0; s < filled; ++s) {
                const StashEntry *entry = stash.find(pending[s]);
                LAORAM_ASSERT(entry,
                              "stash entry vanished during eviction");
                writeScratch.push_back({u.base + s, pending[s],
                                        entry->leaf, entry->payload.data(),
                                        entry->payload.size()});
                evictedScratch.push_back(pending[s]);
            }
            for (std::uint64_t s = u.base + filled; s < u.base + u.z; ++s)
                writeScratch.push_back({s, kInvalidBlock, 0, nullptr, 0});
        }

        if (filled < pending.size() && u.node != 0) {
            std::vector<BlockId> &parent = candidates[u.parent];
            parent.insert(parent.end(), pending.begin() + filled,
                          pending.end());
        }
        // Leftovers at the root simply stay in the stash.
    }
    storage.writeSlots(writeScratch.data(), writeScratch.size());
    for (BlockId id : evictedScratch)
        stash.erase(id);
    return writeScratch.size();
}

void
PathIo::save(serde::Serializer &s) const
{
    s.u64(gaveUpAt);
    s.u64(top.size());
    for (const Stash::Node &slot : top) {
        s.u64(slot.empty() ? kInvalidBlock : slot.key());
        if (!slot.empty())
            slot.mapped().save(s);
    }
}

void
PathIo::restore(serde::Deserializer &d)
{
    gaveUpAt = d.u64();
    const std::uint64_t n = d.u64();
    if (n != top.size())
        throw serde::SnapshotError(
            "snapshot has " + std::to_string(n)
            + " treetop slots but this engine has "
            + std::to_string(top.size()));
    // The occupants join the restored stash first and are taken from
    // it after, so a block the stash or another slot holds is refused.
    std::vector<BlockId> ids(n);
    for (std::uint64_t s = 0; s < n; ++s) {
        ids[s] = d.u64();
        if (ids[s] == kInvalidBlock)
            continue;
        if (stash.contains(ids[s]))
            throw serde::SnapshotError(
                "snapshot holds block " + std::to_string(ids[s])
                + " twice: in treetop slot " + std::to_string(s)
                + " and in the stash or another treetop slot");
        stash.put(ids[s], 0, {}).restore(d);
    }
    for (std::uint64_t s = 0; s < n; ++s)
        top[s] = ids[s] == kInvalidBlock ? Stash::Node()
                                         : stash.take(ids[s]);
}

std::uint64_t
PathIo::readPaths(const Leaf *leaves, std::size_t n)
{
    if (n == 0)
        return 0;
    const std::uint64_t slots = fetchUnion(leaves, n);
    meter.recordBatchedPathReads(unionLeaves.size(),
                                 slots * geom.blockBytes(), slots);
    return slots;
}

std::uint64_t
PathIo::writePaths(const Leaf *leaves, std::size_t n)
{
    if (n == 0)
        return 0;
    const std::uint64_t slots = evictUnion(leaves, n);
    meter.recordBatchedPathWrites(unionLeaves.size(),
                                  slots * geom.blockBytes(), slots);
    return slots;
}

std::uint64_t
PathIo::drain(Rng &rng, std::uint64_t highWater, std::uint64_t lowWater)
{
    return drainStash(stash, highWater, lowWater, gaveUpAt, [&] {
        const Leaf leaf = rng.nextBounded(geom.numLeaves());
        fetchUnion(&leaf, 1);
        const std::uint64_t slots = evictUnion(&leaf, 1);
        meter.recordDummyAccess(slots * geom.blockBytes(), slots);
    });
}

std::string
auditTree(const PathIo &io, const std::function<Leaf(BlockId)> &leafOf)
{
    const TreeGeometry &geom = io.geom;
    const Stash &stash = io.stash;
    std::string occupancy = io.storage.auditOccupancy();
    if (!occupancy.empty())
        return occupancy;

    std::ostringstream err;
    std::unordered_set<BlockId> seen;
    StoredBlock b;

    for (NodeIndex node = 0; node < geom.numNodes(); ++node) {
        const unsigned level = geom.nodeLevel(node);
        const std::uint64_t base = geom.nodeSlotBase(node);
        const std::uint64_t z = geom.bucketSize(level);
        for (std::uint64_t s = 0; s < z; ++s) {
            const std::uint64_t slot = base + s;
            if (slot < io.top.size()) {
                // A treetop slot: it holds its block's stash node.
                const Stash::Node &held = io.top[slot];
                if (held.empty())
                    continue;
                b.id = held.key();
                b.leaf = held.mapped().leaf;
            } else {
                io.storage.readSlot(slot, b);
                if (b.isDummy())
                    continue;
            }
            if (!seen.insert(b.id).second) {
                err << "block " << b.id << " duplicated in tree";
                return err.str();
            }
            if (stash.contains(b.id)) {
                err << "block " << b.id << " in both tree and stash";
                return err.str();
            }
            const Leaf mapped = leafOf(b.id);
            if (b.leaf != mapped) {
                err << "block " << b.id << " stored leaf " << b.leaf
                    << " != posmap leaf " << mapped;
                return err.str();
            }
            if (geom.pathNode(mapped, level) != node) {
                err << "block " << b.id << " at node " << node
                    << " not on path of leaf " << mapped;
                return err.str();
            }
        }
    }

    for (const auto &[id, entry] : stash) {
        const Leaf mapped = leafOf(id);
        if (entry.leaf != mapped) {
            err << "stashed block " << id << " leaf " << entry.leaf
                << " != posmap leaf " << mapped;
            return err.str();
        }
    }
    return {};
}

} // namespace laoram::oram
