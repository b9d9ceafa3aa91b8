/**
 * @file
 * Hash-sharded multi-tree LAORAM with one serving lane per shard.
 *
 * The paper's client (§IV) serves one ORAM tree from one serving
 * thread; production embedding traffic wants many. ShardedLaoram
 * splits one logical block space across N independent Laoram engines
 * (one tree, stash, position map and traffic meter each) and serves
 * all shards concurrently: one serving thread per shard runs that
 * shard's two-stage pipeline — preprocessor-thread pool + reorder
 * window + serving thread (§VIII-A) — so the run keeps numShards x
 * pipeline.prepThreads preprocessor threads live.
 *
 * Sharding is deterministic and reproducible by construction: the
 * splitter is a pure function of (numBlocks, numShards, salt), every
 * shard engine is seeded by a stable pure function of (base seed,
 * shard index), and a shard's serve stream is byte-identical to
 * running that shard's sub-trace through a standalone Laoram with the
 * same derived config — the PR-1 determinism contract, now per shard.
 *
 * Security note: each shard is an independent ORAM over its slice of
 * the id space, so the adversary learns which *shard* a request hits
 * (as in any multi-server/disaggregated ORAM deployment) but nothing
 * about which block within the shard. The hash split keeps shard
 * choice independent of access popularity structure.
 */

#ifndef LAORAM_CORE_SHARDED_LAORAM_HH
#define LAORAM_CORE_SHARDED_LAORAM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "mem/traffic_meter.hh"
#include "util/serde.hh"

namespace laoram::core {

/**
 * Deterministic block-id -> (shard, local id) bijection.
 *
 * Global ids are assigned to shards either by a stateless mixing hash
 * (hashed()) or by an arbitrary caller-supplied assignment
 * (fromAssignment(); per-table sharding for TableSet routes whole
 * tables this way). Within a shard, local ids are dense — assigned by
 * scanning global ids in increasing order — so each shard engine runs
 * over a compact [0, shardBlocks) space with its own small tree.
 */
class ShardSplitter
{
  public:
    /** Salt folded into the shard hash (stable across versions). */
    static constexpr std::uint64_t kShardHashSalt = 0x5A4D5348;

    /**
     * Hash-shard [0, numBlocks): shard(id) = mix(id ^ salt) mod
     * numShards with a SplitMix64 finaliser, so shard choice is
     * uncorrelated with id locality (consecutive rows of one table
     * spread over all shards).
     */
    static ShardSplitter hashed(std::uint64_t numBlocks,
                                std::uint32_t numShards,
                                std::uint64_t salt = kShardHashSalt);

    /**
     * Shard by explicit per-block assignment: @p shardOfBlock[g] is
     * the shard of global id g; every value must be < @p numShards.
     */
    static ShardSplitter
    fromAssignment(std::vector<std::uint32_t> shardOfBlock,
                   std::uint32_t numShards);

    std::uint32_t numShards() const { return nShards; }
    std::uint64_t numBlocks() const { return shardOf_.size(); }

    std::uint32_t
    shardOf(BlockId global) const
    {
        return shardOf_[global];
    }

    /** Dense id of @p global inside its shard. */
    BlockId
    localId(BlockId global) const
    {
        return localOf_[global];
    }

    /** Inverse of (shardOf, localId). */
    BlockId
    globalId(std::uint32_t shard, BlockId local) const
    {
        return globals_[shard][local];
    }

    /** Blocks assigned to @p shard. */
    std::uint64_t
    shardBlocks(std::uint32_t shard) const
    {
        return globals_[shard].size();
    }

    /**
     * Split a global trace into per-shard local traces, preserving
     * per-shard access order (the projection of the logical stream
     * onto each shard).
     */
    std::vector<std::vector<BlockId>>
    splitTrace(const std::vector<BlockId> &trace) const;

    /**
     * Checkpoint support: serialize the assignment table (shard
     * count + per-block shard), the source of truth a restored or
     * resharded deployment rebuilds its routing from.
     */
    void save(serde::Serializer &s) const;

    /**
     * Rebuild a splitter from save()'s bytes. Throws SnapshotError
     * (not a fatal assert) on a malformed table so a corrupt manifest
     * is rejected loudly instead of aborting the process.
     */
    static ShardSplitter restore(serde::Deserializer &d);

  private:
    ShardSplitter(std::vector<std::uint32_t> shardOfBlock,
                  std::uint32_t numShards);

    std::uint32_t nShards = 1;
    std::vector<std::uint32_t> shardOf_; ///< global -> shard
    std::vector<BlockId> localOf_;       ///< global -> dense local id
    std::vector<std::vector<BlockId>> globals_; ///< inverse map
};

/** Sharded-engine knobs. */
struct ShardedLaoramConfig
{
    /**
     * Template for every shard engine: numBlocks is the *global*
     * block-space size (each shard covers its slice), seed is the
     * base seed the per-shard seeds derive from. lookaheadWindow is
     * overridden per shard by pipeline.windowAccesses, the single
     * source of truth for window boundaries.
     */
    LaoramConfig engine;

    /** Number of independent ORAM trees. */
    std::uint32_t numShards = 4;

    /** Per-shard pipeline knobs (window size, queue depth, prep
     *  threads per lane, mode). */
    PipelineConfig pipeline;

    /**
     * Per-shard laoram_node endpoints ("host:port" / "unix:PATH").
     * Empty = local/self-hosted storage, the default. When set, the
     * list must hold exactly numShards entries: shard s's engine
     * dials shardEndpoints[s] (storage kind forced to Remote), so
     * one trace is served over N real storage processes. Each node
     * serves one shard tree — a node accepts any number of client
     * connections, which is the per-node connection pool.
     */
    std::vector<std::string> shardEndpoints;
};

/** One shard's slice of a sharded run. */
struct ShardReport
{
    std::uint64_t accesses = 0;       ///< sub-trace length
    PipelineReport pipeline;          ///< that shard's pipeline run
    mem::TrafficCounters traffic;     ///< delta over the run
};

/**
 * Aggregated view of a sharded run: traffic and stash stats summed
 * over shards, wall/simulated times max-over-shards (shards run
 * concurrently), plus the per-shard breakdown.
 */
struct ShardedPipelineReport
{
    /**
     * Combined PipelineReport. Thread-*work* fields (windows, simNs,
     * prep/serve/IO totals, prepThreads) are summed over shards;
     * *elapsed-time* fields are not — lanes run concurrently, so
     * wallTotalNs is the measured end-to-end wall time of all lanes,
     * the wallFill/wallStall/wallReorderStall waits are
     * max-over-lanes (summing concurrent waits would overstate
     * elapsed time and make aggregate throughput math dishonest), and
     * measuredPrepHiddenFraction is the prep-weighted average of the
     * per-shard fractions.
     * latency merges every lane's request histogram (online sources
     * only; all-zero for trace replay).
     */
    PipelineReport aggregate;

    /** Element-wise sum of every shard's traffic counters. */
    mem::TrafficCounters traffic;

    /**
     * Max-over-shards simulated serve time (concurrent shards); the
     * sum over shards, the total ORAM work, is aggregate.simNs.
     */
    double simNs = 0.0;

    std::vector<ShardReport> shards;
};

/**
 * N independent Laoram engines behind one logical block space, served
 * by one pipeline lane per shard.
 *
 * Thread-safety: serve()/runTrace serve distinct shards from distinct
 * lane threads concurrently. An installed touch callback is invoked under
 * that concurrency — it receives the *global* block id and must be
 * safe to call from several threads at once for blocks of different
 * shards (per-block payload mutation, as in training, is safe).
 */
class ShardedLaoram
{
  public:
    /** Hash-sharded over cfg.engine.base.numBlocks. */
    explicit ShardedLaoram(const ShardedLaoramConfig &cfg);

    /** Custom split (e.g. per-table routing from TableSet). */
    ShardedLaoram(const ShardedLaoramConfig &cfg,
                  ShardSplitter splitter);

    // Pinned in place: installed touch-callback wrappers capture
    // this object's splitter by reference, so moving would leave
    // them dangling.
    ShardedLaoram(const ShardedLaoram &) = delete;
    ShardedLaoram &operator=(const ShardedLaoram &) = delete;
    ShardedLaoram(ShardedLaoram &&) = delete;
    ShardedLaoram &operator=(ShardedLaoram &&) = delete;

    /**
     * Stable per-shard engine seed: a pure function of the base seed
     * and the shard index. A standalone Laoram built over shard i's
     * block count with this seed reproduces shard i byte for byte.
     */
    static std::uint64_t shardSeed(std::uint64_t baseSeed,
                                   std::uint32_t shard);

    /**
     * The exact LaoramConfig shard @p i runs under (shrunken block
     * space, derived seed, pipeline-aligned look-ahead window) — what
     * a determinism test hands to a reference engine.
     */
    LaoramConfig shardEngineConfigFor(std::uint32_t shard) const;

    /**
     * THE sharded run loop: serve every shard's window stream
     * concurrently, one two-stage pipeline per shard on its own
     * serving thread (a single shard serves inline on the caller).
     * Every shard stream is drained at once, so a source whose
     * streams only end on explicit shutdown (the online frontend)
     * cannot starve a shard.
     */
    ShardedPipelineReport serve(ShardedServeSource &source);

    /**
     * Legacy adapter over serve(): split @p trace across the shards
     * and serve each sub-trace as a TraceSource lane.
     */
    ShardedPipelineReport runTrace(const std::vector<BlockId> &trace);

    /**
     * Fold rep.shards into rep.aggregate / rep.traffic / rep.simNs
     * (expects those fields default-initialised).
     * Sums thread-work fields, maxes elapsed-time fields — the
     * wallFill/wallStall/wallReorderStall waits of concurrent lanes
     * overlap in time, so their aggregate is the slowest lane, not
     * the sum. Exposed for the aggregation regression tests.
     *
     * @param wallTotalNs measured end-to-end wall time of all lanes
     */
    static void aggregateShardReports(ShardedPipelineReport &rep,
                                      double wallTotalNs);

    /**
     * Payload hook applied at bin-access time, called with the
     * *global* block id (see class comment for thread-safety). The
     * callback survives reshard(): it is re-installed on the rebuilt
     * shard engines.
     */
    void setTouchCallback(Laoram::TouchFn fn);

    /**
     * Snapshot the whole sharded deployment to client-side sidecar
     * files: a ShardedManifest frame at @p basePath holding the
     * splitter assignment table, plus each shard engine's own Engine
     * frame at shardCheckpointPath(basePath, shard). Call between
     * serve() runs only — serve() returning is the quiesce point
     * (every lane's serving thread has delivered its last window).
     *
     * Restore path: construct a ShardedLaoram whose
     * cfg.engine.base.checkpoint = {basePath, restore=true} over the
     * matching reopened shard trees; the manifest is validated and
     * replaces the splitter before the engines are built, and each
     * shard engine restores its own sidecar during construction.
     */
    void checkpointToFile(const std::string &basePath);

    /**
     * Shard @p shard's sidecar file for a manifest at @p basePath:
     * the same ".shard-<derived seed>" suffix rule
     * oram::shardEngineConfig applies to storage and checkpoint
     * paths, so manifest and engine frames restore consistently.
     */
    std::string shardCheckpointPath(const std::string &basePath,
                                    std::uint32_t shard) const;

    /**
     * Elastic reshard N -> M over the same logical block space, at a
     * window boundary (call between serve() runs, never while one is
     * in flight). Drains every source shard through its engine's
     * oblivious read path, tears the source engines down (flushing
     * and unmapping their storage), rebuilds M hash-sharded engines,
     * and re-inserts every payload through the target engine's write
     * path — so lookups after reshard return byte-identical payloads.
     * With payloadBytes == 0 (pattern-level simulation) there is no
     * payload state to migrate and reshard reduces to the rebuild.
     *
     * Storage note: rebuilt engines always initialise fresh trees
     * (keepExisting is cleared) — shard seeds are a pure function of
     * (base seed, shard index), so source and target shard files can
     * collide on disk and the old tree bytes are dead after the
     * drain. Checkpoint restore flags are likewise cleared: the
     * rebuilt engines' state comes from the migration, not from
     * pre-reshard sidecars (whose geometry no longer matches).
     */
    void reshard(std::uint32_t newShards);

    /** Reshard onto an explicit splitter (custom routing). */
    void reshard(ShardSplitter newSplitter);

    std::uint32_t numShards() const { return splitter_.numShards(); }
    const ShardSplitter &splitter() const { return splitter_; }
    Laoram &shard(std::uint32_t i) { return *engines_[i]; }
    const Laoram &shard(std::uint32_t i) const { return *engines_[i]; }

    /** Sum of every shard's live traffic counters. */
    mem::TrafficCounters totalCounters() const;

    /** Max-over-shards simulated clock (concurrent serve time). */
    double simNs() const;

    /** Server tree bytes summed over shards. */
    std::uint64_t serverBytes() const;

    const ShardedLaoramConfig &config() const { return cfg; }

  private:
    void buildEngines();

    /**
     * Construction-time restore: read + validate the manifest at
     * cfg.engine.base.checkpoint.path and replace splitter_ with the
     * recorded assignment (must agree with cfg on shard and block
     * counts). Runs before buildEngines so shard geometry derives
     * from the restored routing.
     */
    void restoreManifest();

    ShardedLaoramConfig cfg;
    ShardSplitter splitter_;
    std::vector<std::unique_ptr<Laoram>> engines_;
    Laoram::TouchFn touchFn_;
};

} // namespace laoram::core

#endif // LAORAM_CORE_SHARDED_LAORAM_HH
