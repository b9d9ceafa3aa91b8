#include "oram/stash.hh"

#include <algorithm>

#include "util/logging.hh"

namespace laoram::oram {

StashEntry *
Stash::find(BlockId id)
{
    auto it = entries.find(id);
    return it == entries.end() ? nullptr : &it->second;
}

const StashEntry *
Stash::find(BlockId id) const
{
    auto it = entries.find(id);
    return it == entries.end() ? nullptr : &it->second;
}

StashEntry &
Stash::put(BlockId id, Leaf leaf, std::vector<std::uint8_t> payload)
{
    auto &entry = entries[id];
    entry.leaf = leaf;
    entry.payload = std::move(payload);
    return entry;
}

StashEntry &
Stash::remap(BlockId id, Leaf leaf, std::uint64_t payloadBytes)
{
    auto [it, fresh] = entries.try_emplace(id);
    if (fresh)
        it->second.payload.assign(payloadBytes, 0);
    it->second.leaf = leaf;
    return it->second;
}

void
Stash::erase(BlockId id)
{
    entries.erase(id);
}

void
Stash::unpinAll()
{
    for (auto &[id, entry] : entries)
        entry.pinned = false;
}

void
Stash::park(BlockId id)
{
    auto node = entries.extract(id);
    LAORAM_ASSERT(!node.empty(), "parking block ", id,
                  " that is not stashed");
    parked.insert(std::move(node));
}

void
Stash::unpark(BlockId id)
{
    auto node = parked.extract(id);
    LAORAM_ASSERT(!node.empty(), "unparking block ", id,
                  " that is not parked");
    // A block must never be duplicated between tree and stash.
    LAORAM_ASSERT(entries.insert(std::move(node)).inserted, "block ", id,
                  " found in the treetop while stashed");
}

const StashEntry *
Stash::findParked(BlockId id) const
{
    auto it = parked.find(id);
    return it == parked.end() ? nullptr : &it->second;
}

namespace {

void
saveSorted(serde::Serializer &s,
           const std::unordered_map<BlockId, StashEntry> &map)
{
    std::vector<BlockId> ids;
    ids.reserve(map.size());
    for (const auto &[id, entry] : map)
        ids.push_back(id);
    std::sort(ids.begin(), ids.end());

    s.u64(ids.size());
    for (BlockId id : ids) {
        const StashEntry &entry = map.at(id);
        s.u64(id);
        s.u64(entry.leaf);
        s.u8(entry.pinned ? 1 : 0);
        s.blob(entry.payload);
    }
}

void
restoreInto(serde::Deserializer &d,
            std::unordered_map<BlockId, StashEntry> &map)
{
    map.clear();
    const std::uint64_t count = d.u64();
    for (std::uint64_t i = 0; i < count; ++i) {
        const BlockId id = d.u64();
        StashEntry &entry = map[id];
        entry.leaf = d.u64();
        entry.pinned = d.u8() != 0;
        entry.payload = d.blob();
    }
}

} // namespace

void
Stash::save(serde::Serializer &s) const
{
    saveSorted(s, entries);
    saveSorted(s, parked);
}

void
Stash::restore(serde::Deserializer &d)
{
    restoreInto(d, entries);
    restoreInto(d, parked);
}

} // namespace laoram::oram
