#include "oram/ring_oram.hh"

#include <algorithm>
#include <unordered_set>

#include "util/logging.hh"

namespace laoram::oram {

namespace {

EngineConfig
withRingProfile(const RingOramConfig &rc)
{
    // Slot layout: every bucket physically holds realZ + dummies
    // slots, all of them on the server.
    EngineConfig c = rc.base;
    c.profile = BucketProfile::uniform(rc.realZ + rc.dummies);
    c.treetopLevels = 0;
    return c;
}

} // namespace

RingOram::RingOram(const RingOramConfig &cfg)
    : OramEngine(withRingProfile(cfg)),
      rcfg(cfg),
      storage_(geom, cfg.base.payloadBytes, cfg.base.encrypt,
               cfg.base.seed ^ 0x51A6, cfg.base.storage),
      posmap_(cfg.base.numBlocks, geom.numLeaves(), rng),
      buckets(geom.numNodes())
{
    requireFreshStorage(storage_, "RingORAM");
    LAORAM_ASSERT(rcfg.realZ >= 1, "RingORAM needs realZ >= 1");
    LAORAM_ASSERT(rcfg.evictEvery >= 1, "eviction rate must be >= 1");
    LAORAM_ASSERT(rcfg.realZ + rcfg.dummies <= 255,
                  "bucket too large for 8-bit slot offsets");
    const std::uint64_t slotsPerBucket = rcfg.realZ + rcfg.dummies;
    for (auto &meta : buckets)
        meta.unreadSlots = slotsPerBucket;
    byLevel.resize(geom.numLevels());
}

std::string
RingOram::auditRing() const
{
    std::unordered_set<BlockId> seen;
    StoredBlock b;
    for (NodeIndex node = 0; node < geom.numNodes(); ++node) {
        const auto &meta = buckets[node];
        const unsigned level = geom.nodeLevel(node);
        const std::uint64_t base = geom.nodeSlotBase(node);
        if (meta.unreadSlots < meta.real.size())
            return "bucket " + std::to_string(node)
                + " has fewer unread slots than valid blocks";
        for (const auto &[id, off] : meta.real) {
            storage_.readSlot(base + off, b);
            if (b.id != id)
                return "slot record id mismatch at node "
                    + std::to_string(node);
            if (!seen.insert(id).second)
                return "block " + std::to_string(id)
                    + " duplicated in bucket metadata";
            if (stash_.contains(id))
                return "block " + std::to_string(id)
                    + " in both tree and stash";
            const Leaf mapped = posmap_.get(id);
            if (b.leaf != mapped)
                return "block " + std::to_string(id)
                    + " stored leaf disagrees with posmap";
            if (geom.pathNode(mapped, level) != node)
                return "block " + std::to_string(id)
                    + " not on its assigned path";
        }
    }
    for (const auto &[id, entry] : stash_) {
        if (entry.leaf != posmap_.get(id))
            return "stashed block " + std::to_string(id)
                + " leaf disagrees with posmap";
    }
    return {};
}

Leaf
RingOram::reverseLexLeaf(std::uint64_t counter) const
{
    // Bit-reverse the low L bits: consecutive eviction indices map to
    // maximally spread leaves (RingORAM's reverse-lexicographic order).
    const unsigned L = geom.leafLevel();
    std::uint64_t v = counter & (geom.numLeaves() - 1);
    Leaf out = 0;
    for (unsigned i = 0; i < L; ++i) {
        out = (out << 1) | (v & 1);
        v >>= 1;
    }
    return out;
}

void
RingOram::readPathSparse(Leaf leaf, BlockId id)
{
    for (unsigned level = 0; level < geom.numLevels(); ++level) {
        const NodeIndex node = geom.pathNode(leaf, level);
        auto &meta = buckets[node];
        const std::uint64_t base = geom.nodeSlotBase(node);

        auto it = std::find_if(meta.real.begin(), meta.real.end(),
                               [id](const auto &e) {
                                   return e.first == id;
                               });
        if (it != meta.real.end()) {
            storage_.readSlot(base + it->second, scratch);
            LAORAM_ASSERT(scratch.id == id, "bucket metadata desynced");
            stash_.put(scratch.id, scratch.leaf,
                       std::move(scratch.payload));
            meta.real.erase(it);
            LAORAM_ASSERT(meta.unreadSlots > 0, "read of read slot");
            --meta.unreadSlots;
        } else {
            // Burn one unread dummy slot; reshuffle first if none left.
            if (meta.unreadSlots == meta.real.size())
                earlyReshuffle(node);
            --meta.unreadSlots;
        }
    }
    // One physical block per bucket crosses the bus.
    mtr.recordPathRead(geom.numLevels() * cfg.blockBytes,
                       geom.numLevels());
}

void
RingOram::earlyReshuffle(NodeIndex node)
{
    auto &meta = buckets[node];
    const std::uint64_t base = geom.nodeSlotBase(node);
    const std::uint64_t slotsPerBucket = rcfg.realZ + rcfg.dummies;

    // Pull the still-valid blocks out with one vectored read...
    slotScratch.clear();
    for (const auto &[id, off] : meta.real)
        slotScratch.push_back(base + off);
    storage_.readSlots(slotScratch.data(), slotScratch.size(),
                       blockScratch);
    const std::uint64_t liveCount = blockScratch.size();

    // ...and rewrite the bucket wholesale (one vectored write) with
    // fresh encryption. blockScratch payloads stay alive until the
    // write completes.
    meta.real.clear();
    writeScratch.clear();
    for (std::uint64_t i = 0; i < slotsPerBucket; ++i) {
        if (i < liveCount) {
            const StoredBlock &b = blockScratch[i];
            writeScratch.push_back({base + i, b.id, b.leaf,
                                    b.payload.data(),
                                    b.payload.size()});
            meta.real.emplace_back(b.id, static_cast<std::uint8_t>(i));
        } else {
            writeScratch.push_back({base + i, kInvalidBlock, 0,
                                    nullptr, 0});
        }
    }
    storage_.writeSlots(writeScratch.data(), writeScratch.size());
    meta.unreadSlots = slotsPerBucket;

    mtr.recordReshuffle(liveCount * cfg.blockBytes, liveCount,
                        slotsPerBucket * cfg.blockBytes, slotsPerBucket);
}

void
RingOram::evictPath(Leaf leaf, bool asDummy)
{
    const std::uint64_t slotsPerBucket = rcfg.realZ + rcfg.dummies;

    // Read phase: absorb every valid block on the path with one
    // vectored read over the metadata-known slots.
    slotScratch.clear();
    for (unsigned level = 0; level < geom.numLevels(); ++level) {
        const NodeIndex node = geom.pathNode(leaf, level);
        auto &meta = buckets[node];
        const std::uint64_t base = geom.nodeSlotBase(node);
        for (const auto &[id, off] : meta.real)
            slotScratch.push_back(base + off);
        meta.real.clear();
    }
    storage_.readSlots(slotScratch.data(), slotScratch.size(),
                       blockScratch);
    const std::uint64_t blocksIn = blockScratch.size();
    for (StoredBlock &b : blockScratch)
        stash_.put(b.id, b.leaf, std::move(b.payload));

    // Write phase: greedy deepest-first refill, capacity realZ per
    // bucket; remaining slots become fresh dummies.
    for (auto &bucket : byLevel)
        bucket.clear();
    pool.clear();
    for (const auto &[id, entry] : stash_)
        byLevel[geom.commonLevel(entry.leaf, leaf)].push_back(id);

    writeScratch.clear();
    evictedScratch.clear();
    for (unsigned level = geom.numLevels(); level-- > 0;) {
        for (BlockId id : byLevel[level])
            pool.push_back(id);

        const NodeIndex node = geom.pathNode(leaf, level);
        auto &meta = buckets[node];
        const std::uint64_t base = geom.nodeSlotBase(node);
        std::uint64_t filled = 0;
        while (filled < rcfg.realZ && !pool.empty()) {
            const BlockId id = pool.back();
            pool.pop_back();
            StashEntry *entry = stash_.find(id);
            LAORAM_ASSERT(entry, "stash entry vanished during eviction");
            writeScratch.push_back({base + filled, id, entry->leaf,
                                    entry->payload.data(),
                                    entry->payload.size()});
            evictedScratch.push_back(id);
            meta.real.emplace_back(id,
                                   static_cast<std::uint8_t>(filled));
            ++filled;
        }
        for (std::uint64_t s = filled; s < slotsPerBucket; ++s)
            writeScratch.push_back({base + s, kInvalidBlock, 0,
                                    nullptr, 0});
        meta.unreadSlots = slotsPerBucket;
    }
    // One vectored write-back for the whole path; stash entries are
    // erased only afterwards so the payload pointers stay valid.
    storage_.writeSlots(writeScratch.data(), writeScratch.size());
    for (BlockId id : evictedScratch)
        stash_.erase(id);

    const std::uint64_t writeBlocks =
        geom.numLevels() * slotsPerBucket;
    if (asDummy) {
        mtr.recordDummyAccess(writeBlocks * cfg.blockBytes, writeBlocks);
    } else {
        mtr.recordPathRead(blocksIn * cfg.blockBytes, blocksIn);
        mtr.recordPathWrite(writeBlocks * cfg.blockBytes, writeBlocks);
    }
}

void
RingOram::access(BlockId id, AccessOp op, const std::uint8_t *in,
                 std::size_t len, std::vector<std::uint8_t> *out)
{
    LAORAM_ASSERT(id < cfg.numBlocks, "block ", id, " out of range");
    mtr.recordLogicalAccess();

    const Leaf current = posmap_.get(id);
    if (stash_.contains(id))
        mtr.recordStashHit();

    readPathSparse(current, id);

    const Leaf next = rng.nextBounded(geom.numLeaves());
    posmap_.set(id, next);
    StashEntry &entry = stash_.remap(id, next, cfg.payloadBytes);
    applyOp(entry, op, in, len, out);

    // Deterministic eviction every A accesses.
    if (++sinceEvict >= rcfg.evictEvery) {
        evictPath(reverseLexLeaf(evictCounter++), false);
        sinceEvict = 0;
    }

    // Stash high-water safety: extra evictions billed as dummies.
    drainStash(stash_, cfg.stashHighWater, cfg.stashLowWater, gaveUpAt,
               [this] { evictPath(reverseLexLeaf(evictCounter++), true); });
    mtr.observeStashSize(stash_.size());
}

} // namespace laoram::oram
