#include "oram/recursive_posmap.hh"

#include <cstring>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace laoram::oram {

namespace {

/** Stash high-water mark for the small map ORAMs. */
constexpr std::uint64_t kLevelHighWater = 100;
constexpr std::uint64_t kLevelLowWater = 20;

} // namespace

RecursivePositionMap::Level::Level(std::uint64_t blocks,
                                   std::uint64_t payloadBytes,
                                   const RecursiveConfig &cfg,
                                   bool encrypt, std::uint64_t salt,
                                   mem::TrafficMeter &meter)
    : blocks(blocks),
      geom(blocks, payloadBytes, BucketProfile::uniform(4), 0),
      storage(geom, payloadBytes, encrypt, cfg.seed ^ salt),
      stash(),
      io(geom, storage, stash, meter)
{
}

RecursivePositionMap::RecursivePositionMap(std::uint64_t numBlocks,
                                           std::uint64_t numLeaves,
                                           const RecursiveConfig &cfg,
                                           bool encrypt,
                                           mem::TrafficMeter &meter)
    : cfg(cfg), dataLeaves(numLeaves), rng(cfg.seed ^ 0x9eca)
{
    LAORAM_ASSERT(cfg.packing >= 2, "packing must be >= 2");
    LAORAM_ASSERT(numBlocks >= 1 && numLeaves >= 1, "degenerate map");

    // Degenerate case: the whole map fits client memory — identical
    // to the paper's flat-map design.
    if (numBlocks <= cfg.directThreshold) {
        clientMap.resize(numBlocks);
        for (auto &leaf : clientMap)
            leaf = rng.nextBounded(dataLeaves);
        return;
    }

    // Build the ORAM chain until a level's own map fits the client.
    const std::uint64_t payload_bytes = cfg.packing * 4;
    std::uint64_t n = divCeil(numBlocks, cfg.packing);
    std::uint64_t salt = 0x5151;
    while (true) {
        levels.push_back(std::make_unique<Level>(n, payload_bytes, cfg,
                                                 encrypt, salt++, meter));
        if (n <= cfg.directThreshold)
            break;
        n = divCeil(n, cfg.packing);
    }

    // Draw every level's block positions up front, then materialise
    // payloads + tree placement bottom-up so the chain starts fully
    // consistent (all positions uniform).
    std::vector<std::vector<Leaf>> pos(levels.size());
    for (std::size_t i = 0; i < levels.size(); ++i) {
        pos[i].resize(levels[i]->blocks);
        for (auto &leaf : pos[i])
            leaf = rng.nextBounded(levels[i]->geom.numLeaves());
    }
    clientMap = pos.back();

    std::vector<std::uint8_t> payload(payload_bytes);
    for (std::size_t i = 0; i < levels.size(); ++i) {
        Level &level = *levels[i];
        // Per-node occupancy so the bulk load never overwrites.
        std::vector<std::uint8_t> filled(level.geom.numNodes(), 0);
        for (BlockId j = 0; j < level.blocks; ++j) {
            // Payload: packed child positions (level i-1 blocks, or
            // the main data map when i == 0).
            for (std::uint64_t t = 0; t < cfg.packing; ++t) {
                const std::uint64_t child = j * cfg.packing + t;
                Leaf value = 0;
                if (i == 0) {
                    value = child < numBlocks
                                ? rng.nextBounded(dataLeaves)
                                : 0;
                } else {
                    value = child < levels[i - 1]->blocks
                                ? pos[i - 1][child]
                                : 0;
                }
                storePos(payload, t, value);
            }
            // Place block j on its path, deepest free slot first.
            const Leaf home = pos[i][j];
            bool placed = false;
            for (unsigned lvl = level.geom.numLevels(); lvl-- > 0;) {
                const NodeIndex node = level.geom.pathNode(home, lvl);
                const std::uint64_t z = level.geom.bucketSize(lvl);
                if (filled[node] < z) {
                    level.storage.writeSlot(
                        level.geom.nodeSlotBase(node) + filled[node],
                        j, home, payload.data(), payload.size());
                    ++filled[node];
                    placed = true;
                    break;
                }
            }
            if (!placed)
                level.stash.put(j, home, payload);
        }
    }
}

Leaf
RecursivePositionMap::loadPos(const std::vector<std::uint8_t> &payload,
                              std::uint64_t offset)
{
    std::uint32_t v;
    std::memcpy(&v, payload.data() + offset * 4, 4);
    return v;
}

void
RecursivePositionMap::storePos(std::vector<std::uint8_t> &payload,
                               std::uint64_t offset, Leaf leaf)
{
    LAORAM_ASSERT(leaf <= 0xFFFFFFFFull,
                  "leaf exceeds packed 32-bit representation");
    const auto v = static_cast<std::uint32_t>(leaf);
    std::memcpy(payload.data() + offset * 4, &v, 4);
}

Leaf
RecursivePositionMap::getAndSet(BlockId id, Leaf next)
{
    // Flat (non-recursive) fast path.
    if (levels.empty()) {
        LAORAM_ASSERT(id < clientMap.size(), "block out of range");
        const Leaf old = clientMap[id];
        clientMap[id] = next;
        return old;
    }

    // Per-level block indices and intra-block offsets.
    const std::size_t k = levels.size();
    std::vector<BlockId> block(k);
    block[0] = id / cfg.packing;
    for (std::size_t i = 1; i < k; ++i)
        block[i] = block[i - 1] / cfg.packing;

    // Innermost position comes from the client array.
    LAORAM_ASSERT(block[k - 1] < clientMap.size(),
                  "client map index out of range");
    Leaf pos = clientMap[block[k - 1]];
    Leaf npos =
        rng.nextBounded(levels[k - 1]->geom.numLeaves());
    clientMap[block[k - 1]] = npos;

    for (std::size_t i = k; i-- > 0;) {
        Level &level = *levels[i];
        const std::uint64_t off = (i == 0)
                                      ? id % cfg.packing
                                      : block[i - 1] % cfg.packing;
        Leaf child = 0;
        Leaf child_new = next;
        // The packed word is mutated before the write-back, which may
        // evict the entry into the tree; the drain keeps the small map
        // stashes bounded.
        level.io.access(&pos, 1, rng, kLevelHighWater, kLevelLowWater, [&] {
            // After bulk init the block is always found; a missing one
            // reads as a zeroed map block (positions 0 — still valid
            // leaves).
            std::vector<std::uint8_t> &payload =
                level.stash.remap(block[i], npos, cfg.packing * 4).payload;
            child = loadPos(payload, off);
            if (i > 0)
                child_new =
                    rng.nextBounded(levels[i - 1]->geom.numLeaves());
            storePos(payload, off, child_new);
        });
        pos = child;
        npos = child_new;
    }
    // After the main map (level 0), pos is the data block's old leaf.
    return pos;
}

const std::vector<std::uint8_t> *
RecursivePositionMap::peekLevel(const Level &level, BlockId block,
                                Leaf at,
                                std::vector<std::uint8_t> &scratch)
    const
{
    if (const StashEntry *entry = level.stash.find(block))
        return &entry->payload;
    StoredBlock b;
    for (unsigned lvl = 0; lvl < level.geom.numLevels(); ++lvl) {
        const NodeIndex node = level.geom.pathNode(at, lvl);
        const std::uint64_t base = level.geom.nodeSlotBase(node);
        const std::uint64_t z = level.geom.bucketSize(lvl);
        for (std::uint64_t s = 0; s < z; ++s) {
            level.storage.readSlot(base + s, b);
            if (!b.isDummy() && b.id == block) {
                scratch = b.payload;
                return &scratch;
            }
        }
    }
    return nullptr;
}

Leaf
RecursivePositionMap::peek(BlockId id) const
{
    if (levels.empty())
        return clientMap.at(id);

    const std::size_t k = levels.size();
    std::vector<BlockId> block(k);
    block[0] = id / cfg.packing;
    for (std::size_t i = 1; i < k; ++i)
        block[i] = block[i - 1] / cfg.packing;

    Leaf pos = clientMap.at(block[k - 1]);
    std::vector<std::uint8_t> scratch;
    for (std::size_t i = k; i-- > 0;) {
        const std::vector<std::uint8_t> *payload =
            peekLevel(*levels[i], block[i], pos, scratch);
        LAORAM_ASSERT(payload, "map block ", block[i],
                      " missing at level ", i);
        const std::uint64_t off = (i == 0)
                                      ? id % cfg.packing
                                      : block[i - 1] % cfg.packing;
        pos = loadPos(*payload, off);
    }
    return pos;
}

std::uint64_t
RecursivePositionMap::clientBytes() const
{
    std::uint64_t bytes = clientMap.size() * sizeof(Leaf);
    for (const auto &level : levels)
        bytes += level->stash.residentBytes(cfg.packing * 4);
    return bytes;
}

std::uint64_t
RecursivePositionMap::serverBytes() const
{
    std::uint64_t bytes = 0;
    for (const auto &level : levels)
        bytes += level->geom.serverBytes();
    return bytes;
}

RecursivePathOram::RecursivePathOram(const EngineConfig &cfg,
                                     const RecursiveConfig &rcfg)
    : OramEngine(cfg),
      storage_(geom, cfg.payloadBytes, cfg.encrypt, cfg.seed ^ 0x2EC,
               cfg.storage),
      stash_(),
      pathIo_(geom, storage_, stash_, mtr),
      rpm(cfg.numBlocks, geom.numLeaves(), rcfg, cfg.encrypt, mtr)
{
    requireFreshStorage(storage_, cfg, "recursive PathORAM");
}

void
RecursivePathOram::access(BlockId id, AccessOp op,
                          const std::uint8_t *in, std::size_t len,
                          std::vector<std::uint8_t> *out)
{
    LAORAM_ASSERT(id < cfg.numBlocks, "block ", id, " out of range");
    mtr.recordLogicalAccess();

    const Leaf next = rng.nextBounded(geom.numLeaves());
    // One oblivious access per recursion level, then the data path.
    const Leaf current = rpm.getAndSet(id, next);

    if (stash_.contains(id))
        mtr.recordStashHit();
    pathIo_.access(&current, 1, rng, cfg.stashHighWater,
                   cfg.stashLowWater, [&] {
        applyOp(stash_.remap(id, next, cfg.payloadBytes), op, in, len,
                out);
    });
    mtr.observeStashSize(stash_.size());
}

} // namespace laoram::oram
