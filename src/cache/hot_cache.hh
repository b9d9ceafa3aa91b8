/**
 * @file
 * Trusted-client hot-embedding cache tier.
 *
 * Zipfian embedding workloads concentrate most touches on a tiny hot
 * set, so the client keeps a bounded cache of hot rows in its own
 * (trusted) DRAM and serves them without waiting for the ORAM path
 * read. The non-negotiable invariant is obliviousness: the client
 * STILL ISSUES EVERY SCHEDULED ORAM ACCESS, hit or miss — a hit only
 * changes which bytes the client considers authoritative, never which
 * slots the server sees touched. The server-visible access sequence
 * is byte-identical with the cache on or off (enforced by
 * tests/integration/cache_differential_test.cc).
 *
 * Protocol (engine serving thread, per scheduled access of block id):
 *
 *   switch (cache.beginScheduledAccess(id, stashPayload)) {
 *   case Miss:       applyOps(stashPayload); cache.fill(id, ...); break;
 *   case HitInPlace: applyOps(stashPayload);   // payload <- row copy
 *                    cache.completeScheduledAccess(id, stashPayload);
 *                    break;
 *   case Flushed:    break;  // admission-time ops already folded in;
 *   }                        // this access was their write-back
 *
 * The single-access path (Laoram::access, i.e. readBlock/writeBlock
 * and resharding) runs the same protocol so a resident row — which
 * may carry deferred admission-time updates newer than the stash —
 * stays authoritative there too. Its operation is new, though, so
 * after Flushed it still applies the op to the payload (which now
 * holds the deferred value) and calls completeScheduledAccess; the
 * access's own path write doubles as the coalesced write-back.
 *
 * The frontend fast path (tryServeAtAdmission) applies an operation
 * to the cached row at coalesce time — on a prep/assembler thread,
 * completing the client future at DRAM speed — and pins the row until
 * its scheduled access flushes the new value back into the stash
 * (write-back coalescing: the SGD update rides the access that was
 * already going to happen). Pinned rows are never evicted, so a
 * deferred write-back cannot be lost.
 *
 * The cache is trusted client state like the position map: its
 * contents (which ids are hot) are exactly what ORAM hides, so it
 * checkpoints into the client-side snapshot sidecar (save/restore)
 * and must never leak server-side.
 */

#ifndef LAORAM_CACHE_HOT_CACHE_HH
#define LAORAM_CACHE_HOT_CACHE_HH

#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hh"
#include "oram/types.hh"
#include "util/serde.hh"

namespace laoram::cache {

/** Client-side cache sizing (0 capacity = disabled). */
struct CacheConfig
{
    std::uint64_t capacityBytes = 0; ///< row-data budget; 0 disables

    bool enabled() const { return capacityBytes > 0; }
};

/**
 * Counters + occupancy snapshot for reports and live metrics. The
 * counters are also the live cache.* series: every cache attaches
 * its CacheStats to the registry's "cache." LedgerSet for its
 * lifetime, so they are single-writer relaxed fields (the cache
 * mutex serialises the writers) that the sampler reads mid-run.
 */
struct CacheStats
{
    using Count = obs::Relaxed<std::uint64_t>;

    Count hits = 0;   ///< scheduled accesses served from DRAM
    Count misses = 0; ///< scheduled accesses that went to ORAM
    Count evictions = 0;
    /** Deferred admission-time ops flushed into a scheduled access. */
    Count writebackCoalesced = 0;
    /** Ops applied + completed at admission (frontend fast path). */
    Count admissionHits = 0;

    std::uint64_t residentRows = 0;  ///< occupancy level (not a counter)
    std::uint64_t residentBytes = 0; ///< occupancy level (not a counter)
    std::uint64_t capacityRows = 0;  ///< configured row budget

    double
    hitRate() const
    {
        const std::uint64_t accesses = hits + misses;
        return accesses ? static_cast<double>(hits)
                              / static_cast<double>(accesses)
                        : 0.0;
    }

    /** Sum counters; occupancy/capacity levels add (per-shard merge). */
    void accumulate(const CacheStats &other);

    /** Counter delta since @p start (levels keep this side's values). */
    CacheStats deltaFrom(const CacheStats &start) const;
};

/** Outcome of beginScheduledAccess (see file header for protocol). */
enum class AccessOutcome : std::uint8_t {
    Miss,       ///< not resident: touch the stash payload, then fill()
    HitInPlace, ///< payload <- row; touch it, completeScheduledAccess()
    Flushed,    ///< payload <- row; pinned write-back coalesced, done
};

/**
 * Bounded map of hot embedding rows, all payloadBytes wide, evicting
 * the least-recently-used unpinned row. A scheduled-access hit counts
 * as a use; a miss fill admits the row as most recent; refilling a
 * resident row and the admission fast path leave recency alone.
 *
 * Thread safety: one internal mutex serializes every operation. The
 * engine serving thread and the frontend assembler threads contend on
 * it; callbacks passed to tryServeAtAdmission run under the lock and
 * must not re-enter the cache or take locks ordered before it.
 * Deliberately consumes no engine randomness, so attaching a cache
 * cannot perturb the deterministic access schedule.
 */
class HotEmbeddingCache
{
  public:
    /** @p rowBytes must equal the engine payloadBytes (> 0). */
    HotEmbeddingCache(const CacheConfig &config, std::uint64_t rowBytes);
    ~HotEmbeddingCache();

    /**
     * Serving-thread entry for the scheduled access of @p id. On any
     * kind of hit the authoritative row is copied into @p payload.
     */
    AccessOutcome beginScheduledAccess(oram::BlockId id,
                                       std::vector<std::uint8_t> &payload);

    /**
     * Write the touched @p payload back into the row (HitInPlace).
     * No-op when the row acquired a pin since beginScheduledAccess:
     * the pinned value postdates @p payload and must win, or the
     * acknowledged fast-path op would be silently lost.
     */
    void completeScheduledAccess(oram::BlockId id,
                                 const std::vector<std::uint8_t> &payload);

    /** Miss fill: admit a copy of @p payload, evicting as needed. */
    void fill(oram::BlockId id, const std::vector<std::uint8_t> &payload);

    /**
     * Frontend fast path (assembler thread): if @p id is resident,
     * run @p fn on the row under the lock, pin the row until its
     * scheduled access flushes, and return true. The caller must
     * guarantee that no earlier planned (non-fast) operation on the
     * same id is still outstanding, or arrival order is violated.
     */
    bool tryServeAtAdmission(
        oram::BlockId id,
        const std::function<void(std::vector<std::uint8_t> &)> &fn);

    CacheStats stats() const;
    std::uint64_t rowBytes() const { return bytesPerRow; }
    std::uint64_t capacityRows() const { return maxRows; }
    const CacheConfig &config() const { return cfg; }

    /**
     * Checkpoint the cache contents (ids + rows + counters) into @p s.
     * Only legal at a quiesced boundary: no pinned write-backs may be
     * outstanding.
     */
    void save(serde::Serializer &s) const;

    /**
     * Restore contents saved by save(). The counters take the
     * snapshot's values; the live cache.* totals neither jump nor
     * rewind. Throws serde::SnapshotError
     * when the snapshot's rowBytes/capacity disagree with this
     * cache's configuration. Quiesced-boundary only, like save().
     */
    void restore(serde::Deserializer &d);

    /**
     * Drop all rows; counters keep accumulating. Quiesced-boundary
     * only: panics when a pinned write-back is outstanding (it would
     * be the only copy of an acknowledged update), matching save().
     */
    void clear();

  private:
    using Recency = std::list<oram::BlockId>;

    struct Row
    {
        std::vector<std::uint8_t> data;
        Recency::iterator recency; ///< this row's place in lru
        std::uint32_t pinned = 0;  ///< outstanding deferred write-backs
    };

    /** Panic if any row is pinned (quiesced-boundary contract). */
    void assertNoPinsLocked(const char *op) const;
    void evictForSpaceLocked();
    void insertLocked(oram::BlockId id, std::vector<std::uint8_t> data);

    const CacheConfig cfg;
    const std::uint64_t bytesPerRow;
    const std::uint64_t maxRows;

    mutable std::mutex mu;
    std::unordered_map<oram::BlockId, Row> rows;
    Recency lru; ///< resident ids, least recently used first
    CacheStats st;
};

} // namespace laoram::cache

#endif // LAORAM_CACHE_HOT_CACHE_HH
