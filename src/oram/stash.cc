#include "oram/stash.hh"

#include <algorithm>
#include <utility>

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

Stash::Node
Stash::take(BlockId id)
{
    Node node = entries.extract(id);
    LAORAM_ASSERT(!node.empty(), "taking block ", id,
                  " that is not stashed");
    return node;
}

void
Stash::give(Node node)
{
    const BlockId id = node.key();
    // A block must never be duplicated between tree and stash.
    LAORAM_ASSERT(entries.insert(std::move(node)).inserted, "block ", id,
                  " found in the treetop while stashed");
}

void
StashEntry::save(serde::Serializer &s) const
{
    s.u64(leaf);
    s.u8(pinned ? 1 : 0);
    s.blob(payload);
}

void
StashEntry::restore(serde::Deserializer &d)
{
    leaf = d.u64();
    pinned = d.u8() != 0;
    payload = d.blob();
}

void
Stash::save(serde::Serializer &s) const
{
    std::vector<BlockId> ids;
    ids.reserve(entries.size());
    for (const auto &[id, entry] : entries)
        ids.push_back(id);
    std::sort(ids.begin(), ids.end());

    s.u64(ids.size());
    for (BlockId id : ids) {
        s.u64(id);
        entries.at(id).save(s);
    }
}

void
Stash::restore(serde::Deserializer &d)
{
    entries.clear();
    const std::uint64_t count = d.u64();
    for (std::uint64_t i = 0; i < count; ++i) {
        const BlockId id = d.u64();
        entries[id].restore(d);
    }
}

} // namespace laoram::oram
