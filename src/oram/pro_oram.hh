/**
 * @file
 * PrORAM-style superblock baselines (Yu et al., ISCA'15), as discussed
 * in paper §II-D and §IX.
 *
 * Two engines:
 *
 * - StaticSuperblockOram: every aligned group of `superblockSize`
 *   consecutive block ids permanently shares one path ("static
 *   superblocks"). An access to any member fetches the shared path and
 *   remaps the whole group to a fresh common leaf.
 *
 * - ProOram ("dynamic superblocks"): per-group spatial-locality
 *   counters. When members of an aligned group are accessed close
 *   together in time the counter rises; crossing the merge threshold
 *   fuses the group onto one path. When co-access stops the counter
 *   decays and the group splits back into independent blocks. This is a
 *   faithful-in-spirit approximation of PrORAM's counter scheme (the
 *   original tracks DRAM-row-granularity locality); on the
 *   high-entropy embedding traces studied here its merge rate collapses
 *   and it degenerates to PathORAM — exactly the observation the paper
 *   uses to justify look-ahead (Fig. 2 discussion).
 */

#ifndef LAORAM_ORAM_PRO_ORAM_HH
#define LAORAM_ORAM_PRO_ORAM_HH

#include "oram/engine.hh"

namespace laoram::oram {

/** Configuration for the static-superblock engine. */
struct StaticSuperblockConfig
{
    EngineConfig base;
    std::uint64_t superblockSize = 4; ///< aligned group width (>= 1)
};

/** PrORAM's static superblocks: id/S defines an immutable group. */
class StaticSuperblockOram final : public TreeOramBase
{
  public:
    explicit StaticSuperblockOram(const StaticSuperblockConfig &cfg);

    std::string name() const override;

    void access(BlockId id, AccessOp op, const std::uint8_t *in,
                std::size_t len, std::vector<std::uint8_t> *out) override;

  private:
    /** First member id of @p id's group. */
    BlockId groupBase(BlockId id) const;
    /** One-past-last member id of @p id's group. */
    BlockId groupEnd(BlockId id) const;

    std::uint64_t sbSize;
};

/** Configuration for the dynamic (counter-based) PrORAM engine. */
struct ProOramConfig
{
    EngineConfig base;
    std::uint64_t groupSize = 4; ///< candidate superblock width
};

/** PrORAM with dynamic counter-driven superblock formation. */
class ProOram final : public TreeOramBase
{
  public:
    explicit ProOram(const ProOramConfig &cfg);

    std::string name() const override;

    void access(BlockId id, AccessOp op, const std::uint8_t *in,
                std::size_t len, std::vector<std::uint8_t> *out) override;

    /** Groups currently fused (observability for tests/benches). */
    std::uint64_t mergedGroups() const { return nMerged; }
    std::uint64_t totalMerges() const { return nMergeEvents; }
    std::uint64_t totalSplits() const { return nSplitEvents; }

    /** Adds the group counters to the tree-ORAM sections. */
    void saveClientState(serde::Serializer &s) const override;
    void restoreClientState(serde::Deserializer &d) override;

  private:
    struct GroupState
    {
        int counter = 0;
        bool merged = false;
        std::uint64_t lastAccess = 0; ///< global access index
        bool everAccessed = false;
    };

    BlockId groupBase(BlockId id) const;
    BlockId groupEnd(BlockId id) const;
    /**
     * Fuse @p id's group: fetch every member's path (batched), remap
     * all members to one fresh leaf, apply the pending operation on
     * @p id, then write the path union back. The op must be applied
     * before write-back, which may evict the block to the tree.
     */
    void mergeGroup(BlockId id, AccessOp op, const std::uint8_t *in,
                    std::size_t len, std::vector<std::uint8_t> *out);
    void splitGroup(BlockId id);

    ProOramConfig pcfg;
    std::vector<GroupState> groups;
    std::uint64_t accessIndex = 0;
    std::uint64_t nMerged = 0;
    std::uint64_t nMergeEvents = 0;
    std::uint64_t nSplitEvents = 0;
};

} // namespace laoram::oram

#endif // LAORAM_ORAM_PRO_ORAM_HH
