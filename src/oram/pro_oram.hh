/**
 * @file
 * PrORAM's dynamic superblocks (Yu et al., ISCA'15), the baseline of
 * paper §II-D and §IX.
 *
 * Per-group spatial-locality counters: when members of an aligned
 * group are accessed close together in time the counter rises, and
 * crossing the merge threshold fuses the group onto one path. A fused
 * group moves together, and an access to one member keeps the others
 * pinned client-side for their predicted accesses. When co-access
 * stops the counter decays and the group splits back into independent
 * blocks. This is a faithful-in-spirit approximation of PrORAM's
 * counter scheme (the original tracks DRAM-row-granularity locality);
 * on the high-entropy embedding traces studied here its merge rate
 * collapses and it degenerates to PathORAM — exactly the observation
 * the paper uses to justify look-ahead (Fig. 2 discussion).
 */

#ifndef LAORAM_ORAM_PRO_ORAM_HH
#define LAORAM_ORAM_PRO_ORAM_HH

#include "oram/engine.hh"

namespace laoram::oram {

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
