/**
 * @file
 * Common engine interface and the shared tree-ORAM base class.
 *
 * Every address-hiding scheme in this repository (PathORAM, PrORAM,
 * RingORAM, recursive PathORAM, LAORAM) implements OramEngine, so the
 * benchmark harness can run identical traces through interchangeable
 * engines and compare the traffic meters. OramEngine is only the
 * access interface; the client-state snapshot (checkpoint / restore)
 * lives on TreeOramBase, whose engines (PathORAM, PrORAM, LAORAM) are
 * the ones that can restore one.
 */

#ifndef LAORAM_ORAM_ENGINE_HH
#define LAORAM_ORAM_ENGINE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/cost_model.hh"
#include "mem/traffic_meter.hh"
#include "oram/evictor.hh"
#include "oram/position_map.hh"
#include "oram/server_storage.hh"
#include "oram/stash.hh"
#include "oram/tree_geometry.hh"
#include "oram/types.hh"
#include "util/rng.hh"
#include "util/serde.hh"

namespace laoram::oram {

/** Configuration shared by all engines. */
struct EngineConfig
{
    std::uint64_t numBlocks = 1024;  ///< logical blocks to protect
    std::uint64_t blockBytes = 128;  ///< logical block size (accounting)
    std::uint64_t payloadBytes = 0;  ///< physically stored payload bytes
    BucketProfile profile = BucketProfile::uniform(4);
    std::uint64_t stashHighWater = 500; ///< background-eviction trigger
    std::uint64_t stashLowWater = 50;   ///< background-eviction target
    bool encrypt = false;            ///< ChaCha20 at-rest encryption
    std::uint64_t seed = 1;          ///< master RNG seed

    /**
     * Where the tree's slot records physically live: DRAM (default)
     * or a persistent mmap file. See storage::StorageConfig.
     */
    storage::StorageConfig storage{};

    /**
     * Tree levels whose buckets stay in trusted client memory instead
     * of on the server (treetop caching; see PathIo). The
     * PathORAM-family engines' path reads and write-backs then move,
     * encrypt and meter only levels >= k. The engine's TreeGeometry
     * resolves it (geometry().treetopLevels()): kAutoTreetop (the
     * default) keeps the top floor(numLevels / 2) levels, about
     * sqrt(nodes) nodes and never the leaf level. Over a treetop a
     * fat profile widens only those levels (TreeGeometry): for a
     * 2^19-block fat(4) tree that is k = 10, 16 slots per top
     * bucket (16,368 top slots, each owning its block's stash
     * node), with 4 slots per server bucket. 0 turns it off, as
     * the paper's system has none, and keeps §V's linear fat tree;
     * an explicit k must be
     * at most the leaf level. RingORAM passes 0 (its bucket protocol
     * meters its own traffic), and the recursive engine applies it to
     * its data tree only, not to its position-map trees.
     */
    unsigned treetopLevels = kAutoTreetop;

    /**
     * Trusted client-state snapshot sidecar (see
     * storage::CheckpointConfig). With restore set, a TreeOramBase
     * engine reloads its position map / stash / RNG streams / meter
     * from checkpoint.path at construction instead of initialising
     * fresh — the only way a keepExisting tree reopen is serveable.
     * RingORAM and the recursive engine cannot snapshot, so they
     * refuse restore set at construction (requireFreshStorage).
     */
    storage::CheckpointConfig checkpoint{};
};

/**
 * Derive a shard-local engine configuration from one logical config:
 * same knobs (block size, bucket profile, water marks, cost model),
 * but covering only @p shardBlocks blocks — so each shard's tree
 * geometry shrinks with its slice of the id space — and seeded with
 * the shard's own @p shardSeed. A file-backed storage path is suffixed
 * with the shard seed so every shard tree maps its own file. The
 * result is exactly the config a standalone engine over that
 * sub-space would use, which is what makes sharded runs reproducible
 * against unsharded per-shard references.
 */
EngineConfig shardEngineConfig(const EngineConfig &base,
                               std::uint64_t shardBlocks,
                               std::uint64_t shardSeed);

/**
 * Abstract address-hiding engine.
 *
 * A logical access touches one block id; the engine translates it into
 * oblivious server traffic and charges the traffic meter. Engines with
 * payload support move real bytes; with payloadBytes == 0 they degrade
 * to pure access-pattern simulators (all paper metrics are
 * pattern-level).
 */
class OramEngine
{
  public:
    explicit OramEngine(const EngineConfig &cfg);
    virtual ~OramEngine() = default;

    OramEngine(const OramEngine &) = delete;
    OramEngine &operator=(const OramEngine &) = delete;

    virtual std::string name() const = 0;

    /**
     * Perform one logical access.
     *
     * @param id  block to touch (< numBlocks)
     * @param op  Read / Write / Touch
     * @param in  payload for writes (may be null for Touch/Read)
     * @param len payload length for writes
     * @param out filled with the block's payload on reads (optional)
     */
    virtual void access(BlockId id, AccessOp op,
                        const std::uint8_t *in, std::size_t len,
                        std::vector<std::uint8_t> *out) = 0;

    /** Convenience wrappers. */
    void touch(BlockId id) { access(id, AccessOp::Touch, nullptr, 0,
                                    nullptr); }
    void readBlock(BlockId id, std::vector<std::uint8_t> &out);
    void writeBlock(BlockId id, const std::vector<std::uint8_t> &data);

    /**
     * Run a whole address trace. The default walks the trace one touch
     * at a time; LAORAM overrides it with preprocessing + superblock
     * accesses.
     */
    virtual void runTrace(const std::vector<BlockId> &trace);

    /** Blocks currently held in trusted client memory. */
    virtual std::uint64_t stashSize() const = 0;

    const TreeGeometry &geometry() const { return geom; }
    const mem::TrafficMeter &meter() const { return mtr; }
    const EngineConfig &config() const { return cfg; }

  protected:
    /**
     * Apply a logical operation to a stash-resident block. Payloads are
     * kept at exactly payloadBytes (zero-padded), so reads after short
     * writes return the padded block, mirroring fixed-size ORAM slots.
     */
    void applyOp(StashEntry &entry, AccessOp op, const std::uint8_t *in,
                 std::size_t len, std::vector<std::uint8_t> *out) const;

    EngineConfig cfg;
    TreeGeometry geom;
    mem::TrafficMeter mtr;
    Rng rng;
};

/**
 * The restore-or-fresh decision every storage-owning engine makes at
 * construction. Fresh storage with no restore request: proceed. A
 * keepExisting reopen is serveable only when a matching client-state
 * snapshot is configured (cfg.checkpoint.restore with an existing
 * snapshot file); otherwise — and when restore is requested against
 * a fresh tree — this fatals with a message naming the
 * checkpoint/restore flow and the exact CLI flags.
 */
void resolveRestoreOrFresh(const ServerStorage &storage,
                           const EngineConfig &cfg);

/**
 * Fatal when @p storage attached to a previous run's tree
 * (keepExisting), or when @p cfg asks for a restore, under an engine
 * with no checkpoint/restore support (@p engineName: RingORAM,
 * recursive PathORAM). Points at the LAORAM checkpoint flow instead
 * of dead-ending.
 */
void requireFreshStorage(const ServerStorage &storage,
                         const EngineConfig &cfg, const char *engineName);

/**
 * Shared machinery for the PathORAM-family engines: server storage,
 * position map, stash and the path I/O that reads, writes back and
 * dummy-evicts (§II-E) their paths and charges the meter for them.
 * These are the engines whose trusted client state can be
 * snapshotted and restored.
 */
class TreeOramBase : public OramEngine
{
  public:
    explicit TreeOramBase(const EngineConfig &cfg);

    std::uint64_t stashSize() const override { return stash_.size(); }

    /** Test hooks: expose internals for invariant auditing. */
    const ServerStorage &storageForAudit() const { return storage_; }
    const Stash &stashForAudit() const { return stash_; }
    const PositionMap &posmapForAudit() const { return posmap_; }
    const PathIo &pathIoForAudit() const { return pathIo_; }

    /** Mutable storage access for installing test access sinks. */
    ServerStorage &storageForTest() { return storage_; }

    /**
     * Serialize all trusted client state (geometry header, meter,
     * RNG, position map, stash, path I/O; subclasses append their
     * own counters). Call only at a quiescent point — for pipelined
     * runs that means a window boundary, where the serving thread
     * owns every piece of engine state (see PipelineConfig's
     * window-boundary hook).
     */
    virtual void saveClientState(serde::Serializer &s) const;

    /**
     * Inverse of saveClientState. Throws serde::SnapshotError when
     * the snapshot's geometry header does not match this engine's
     * configuration (wrong-geometry snapshots are refused, never
     * half-applied: validation happens before any state is touched).
     */
    virtual void restoreClientState(serde::Deserializer &d);

    /**
     * Versioned, checksummed snapshot of the trusted client state,
     * flushing server storage first so tree and snapshot land on the
     * same boundary. The blob restores via restoreFrom() into an
     * engine built over the *same* persisted tree.
     */
    std::vector<std::uint8_t> checkpoint();

    /** Validate + apply a checkpoint() blob; throws on any mismatch. */
    void restoreFrom(const std::vector<std::uint8_t> &blob);

    /** checkpoint() to a client-side sidecar file (atomic rename). */
    void checkpointToFile(const std::string &path);

    /** restoreFrom() the sidecar file at @p path. */
    void restoreFromFile(const std::string &path);

  protected:
    /**
     * Final-class constructors call this as their *last* step: when
     * cfg.checkpoint.restore is configured it reloads the snapshot
     * (the base constructor already vetted the storage side via
     * resolveRestoreOrFresh). Must run from the most-derived
     * constructor so the full restoreClientState override chain is
     * in place.
     */
    void restoreAtConstructionIfConfigured();

    /** Draw a uniform leaf. */
    Leaf randomLeaf() { return rng.nextBounded(geom.numLeaves()); }

    /**
     * A single access of the PathORAM-family engines around
     * PathIo::access: count a stash hit for @p id, and in the access's
     * remap move blocks [@p first, @p end) to one fresh uniform leaf,
     * call @p op on @p id's stash entry and pin the other members for
     * their predicted accesses; then record the stash peak. @p op
     * runs before the write-back, which may evict the entry to the
     * tree. PathORAM is the one-block, one-leaf case ([id, id + 1),
     * its current leaf).
     */
    template <typename Op>
    void
    accessPaths(BlockId id, BlockId first, BlockId end,
                const Leaf *leaves, std::size_t n, Op &&op)
    {
        if (stash_.contains(id))
            mtr.recordStashHit();
        pathIo_.access(leaves, n, rng, cfg.stashHighWater,
                       cfg.stashLowWater, [&] {
            const Leaf next = randomLeaf();
            for (BlockId m = first; m < end; ++m) {
                posmap_.set(m, next);
                StashEntry &entry =
                    stash_.remap(m, next, cfg.payloadBytes);
                if (m == id)
                    op(entry);
                else
                    entry.pinned = true;
            }
        });
        mtr.observeStashSize(stash_.size());
    }

    ServerStorage storage_;
    PositionMap posmap_;
    Stash stash_;
    PathIo pathIo_;
};

} // namespace laoram::oram

#endif // LAORAM_ORAM_ENGINE_HH
