/**
 * @file
 * Recursive position map (Stefanov et al., PathORAM §6) and a
 * PathORAM engine built on it.
 *
 * The paper's LAORAM stores the position map flat in trainer-GPU HBM
 * (§III) — an O(N log N)-bit client structure. The classic
 * alternative packs the map into a chain of smaller ORAMs: ORAM_1
 * holds the main map (chi positions per block), ORAM_2 holds ORAM_1's
 * map, and so on until the innermost map fits in client memory. Every
 * logical access then costs one extra path access per recursion
 * level.
 *
 * This module implements that substrate so the repository can
 * *quantify* the paper's design choice: bench_recursion_ablation
 * measures the traffic/time overhead LAORAM avoids by spending HBM on
 * the flat map.
 */

#ifndef LAORAM_ORAM_RECURSIVE_POSMAP_HH
#define LAORAM_ORAM_RECURSIVE_POSMAP_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/traffic_meter.hh"
#include "oram/engine.hh"
#include "oram/evictor.hh"
#include "oram/server_storage.hh"
#include "oram/stash.hh"
#include "oram/tree_geometry.hh"
#include "util/rng.hh"

namespace laoram::oram {

/** Recursion knobs. */
struct RecursiveConfig
{
    std::uint64_t packing = 16;       ///< chi: positions per map block
    std::uint64_t directThreshold = 1024; ///< client-resident map size
    std::uint64_t seed = 1;
};

/**
 * Position map stored as a chain of PathORAM trees.
 *
 * The main map (level 0) answers "where is data block b in the data
 * tree"; each deeper level stores the previous level's positions,
 * chi to a block. The innermost level is a plain client array of at
 * most directThreshold entries.
 */
class RecursivePositionMap
{
  public:
    /**
     * @param numBlocks data blocks whose positions are tracked
     * @param numLeaves leaf domain of the *data* tree
     * @param cfg       recursion parameters
     * @param encrypt   encrypt the map ORAMs at rest (as the data tree)
     * @param meter     traffic meter charged for every map ORAM access
     */
    RecursivePositionMap(std::uint64_t numBlocks,
                         std::uint64_t numLeaves,
                         const RecursiveConfig &cfg, bool encrypt,
                         mem::TrafficMeter &meter);

    /**
     * Oblivious lookup-and-update: returns block @p id's current data
     * leaf and re-points it at @p next. Costs one PathIo::access per
     * recursion level, charged to the meter.
     */
    Leaf getAndSet(BlockId id, Leaf next);

    /** Number of ORAM levels in the chain (0 = map fits the client). */
    std::uint64_t oramLevels() const { return levels.size(); }

    /** Client-resident bytes (innermost array + level stashes). */
    std::uint64_t clientBytes() const;

    /** Server bytes consumed by the map ORAMs. */
    std::uint64_t serverBytes() const;

    /**
     * Non-oblivious debug/test read of a position: walks the chain
     * through storage without generating access-pattern traffic.
     */
    Leaf peek(BlockId id) const;

  private:
    /** One ORAM in the chain. */
    struct Level
    {
        Level(std::uint64_t blocks, std::uint64_t payloadBytes,
              const RecursiveConfig &cfg, bool encrypt,
              std::uint64_t salt, mem::TrafficMeter &meter);

        std::uint64_t blocks;
        TreeGeometry geom;
        ServerStorage storage;
        Stash stash;
        PathIo io;
    };

    /** Read a packed 32-bit position word. */
    static Leaf loadPos(const std::vector<std::uint8_t> &payload,
                        std::uint64_t offset);
    static void storePos(std::vector<std::uint8_t> &payload,
                         std::uint64_t offset, Leaf leaf);

    /** Find @p block's payload at @p level without traffic (peek). */
    const std::vector<std::uint8_t> *peekLevel(const Level &level,
                                               BlockId block,
                                               Leaf at,
                                               std::vector<std::uint8_t>
                                                   &scratch) const;

    RecursiveConfig cfg;
    std::uint64_t dataLeaves;
    Rng rng;

    /** levels[0] holds the main map; back() is the innermost ORAM. */
    std::vector<std::unique_ptr<Level>> levels;
    /** Positions of levels.back()'s blocks (client-resident). */
    std::vector<Leaf> clientMap;
};

/**
 * PathORAM over a recursive position map — the memory-frugal client
 * the paper's flat-map design is traded against.
 */
class RecursivePathOram final : public OramEngine
{
  public:
    RecursivePathOram(const EngineConfig &cfg,
                      const RecursiveConfig &rcfg);

    std::string name() const override { return "PathORAM-recursive"; }

    void access(BlockId id, AccessOp op, const std::uint8_t *in,
                std::size_t len, std::vector<std::uint8_t> *out)
        override;

    std::uint64_t stashSize() const override { return stash_.size(); }

    const RecursivePositionMap &positionMap() const { return rpm; }

    /** Mutable data-tree storage for installing test access sinks. */
    ServerStorage &storageForTest() { return storage_; }

    /**
     * Test hooks: the data tree's stash and path I/O (audit the tree
     * with auditTree against positionMap().peek).
     */
    const Stash &stashForAudit() const { return stash_; }
    const PathIo &pathIoForAudit() const { return pathIo_; }

  private:
    ServerStorage storage_;
    Stash stash_;
    PathIo pathIo_;
    RecursivePositionMap rpm;
};

} // namespace laoram::oram

#endif // LAORAM_ORAM_RECURSIVE_POSMAP_HH
