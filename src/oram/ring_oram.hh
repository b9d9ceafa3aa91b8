/**
 * @file
 * RingORAM (Ren et al.) — the bandwidth-optimised alternative the
 * paper discusses in §VIII-G.
 *
 * Per logical access RingORAM reads exactly *one* slot per bucket on
 * the path (the requested block where present, an unread dummy
 * elsewhere) instead of PathORAM's full buckets, and defers eviction
 * to every A-th access along reverse-lexicographic paths. Buckets
 * whose unread slots are exhausted are reshuffled early.
 *
 * Simplifications relative to the original (documented in DESIGN.md):
 * bucket metadata (which slot holds which block, remaining unread
 * dummies) is kept client-side instead of in encrypted server headers,
 * and the XOR trick for combining dummy reads is omitted. Neither
 * changes the block-fetch counts the §VIII-G comparison is about.
 */

#ifndef LAORAM_ORAM_RING_ORAM_HH
#define LAORAM_ORAM_RING_ORAM_HH

#include "oram/engine.hh"

namespace laoram::oram {

/** RingORAM-specific knobs layered on the common EngineConfig. */
struct RingOramConfig
{
    EngineConfig base;       ///< base.profile is ignored (see realZ/dummies)
    std::uint64_t realZ = 4; ///< real-block capacity per bucket (Z)
    std::uint64_t dummies = 4; ///< extra dummy slots per bucket (S)
    std::uint64_t evictEvery = 3; ///< eviction rate (A)
};

/** Simplified RingORAM engine. */
class RingOram final : public OramEngine
{
  public:
    explicit RingOram(const RingOramConfig &cfg);

    std::string name() const override { return "RingORAM"; }

    void access(BlockId id, AccessOp op, const std::uint8_t *in,
                std::size_t len, std::vector<std::uint8_t> *out) override;

    std::uint64_t stashSize() const override { return stash_.size(); }

    /** Mutable storage access for installing test access sinks. */
    ServerStorage &storageForTest() { return storage_; }

    /**
     * Invariant audit specialised for RingORAM (sparse reads leave
     * stale ciphertext behind, so the generic auditTree cannot be
     * used): every *valid* block per bucket metadata must match its
     * stored record, lie on its position-map path, and appear exactly
     * once across tree metadata and stash.
     *
     * @return empty string when consistent, else the first violation
     */
    std::string auditRing() const;

  private:
    /** Per-bucket client-side metadata. */
    struct BucketMeta
    {
        /** (block id, physical slot offset) for each valid real block. */
        std::vector<std::pair<BlockId, std::uint8_t>> real;
        /** Unread slots still usable to answer accesses obliviously. */
        std::uint64_t unreadSlots = 0;
    };

    /**
     * Deterministic reverse-lexicographic eviction order: spreads
     * consecutive evictions across the tree (RingORAM §3.2).
     */
    Leaf reverseLexLeaf(std::uint64_t counter) const;

    /** Read one slot per bucket along @p leaf, hunting for @p id. */
    void readPathSparse(Leaf leaf, BlockId id);

    /**
     * EvictPath: pull every valid block on @p leaf's path into the
     * stash, then refill buckets greedily up to realZ blocks each.
     * @p asDummy charges the access as a background-eviction dummy.
     */
    void evictPath(Leaf leaf, bool asDummy);

    /** Re-randomise a bucket whose unread slots ran out. */
    void earlyReshuffle(NodeIndex node);

    RingOramConfig rcfg;
    ServerStorage storage_;
    PositionMap posmap_;
    Stash stash_;
    std::vector<BucketMeta> buckets;
    std::uint64_t evictCounter = 0;
    std::uint64_t sinceEvict = 0;
    /** drainStash's give-up memory for the high-water evictions. */
    std::uint64_t gaveUpAt = 0;

    // Scratch (avoids per-access allocation).
    StoredBlock scratch;
    std::vector<std::vector<BlockId>> byLevel;
    std::vector<BlockId> pool;
    std::vector<std::uint64_t> slotScratch;
    std::vector<StoredBlock> blockScratch;
    std::vector<ServerStorage::SlotWriteOp> writeScratch;
    std::vector<BlockId> evictedScratch;
};

} // namespace laoram::oram

#endif // LAORAM_ORAM_RING_ORAM_HH
