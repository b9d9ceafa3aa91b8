#include "core/sharded_laoram.hh"

#include <algorithm>
#include <chrono>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace laoram::core {

namespace {

/** Lanes (shard pipelines) in flight right now. */
obs::Gauge &
lanesActiveGauge()
{
    static obs::Gauge &g = obs::MetricsRegistry::instance().gauge(
        "pipeline.lanes_active", "shard pipelines currently serving");
    return g;
}

/**
 * Holds pipeline.lanes_active up while one lane serves and takes back
 * exactly what it added, also when the lane throws.
 */
struct ActiveLane
{
    const bool counted = obs::metricsEnabled();

    ActiveLane()
    {
        if (counted)
            lanesActiveGauge().inc();
    }
    ~ActiveLane()
    {
        if (counted)
            lanesActiveGauge().dec();
    }
    ActiveLane(const ActiveLane &) = delete;
    ActiveLane &operator=(const ActiveLane &) = delete;
};

/** runTrace's ShardedServeSource: one TraceSource per sub-trace. */
class TraceShardSource final : public ShardedServeSource
{
  public:
    TraceShardSource(std::vector<std::vector<BlockId>> subTraces,
                     std::uint64_t windowAccesses)
        : traces(std::move(subTraces))
    {
        // deque, not vector: TraceSource pins itself (reference +
        // atomic members), and the lane sources must never relocate
        // once handed out.
        for (const std::vector<BlockId> &t : traces)
            sources.emplace_back(t, windowAccesses);
    }

    ServeSource &
    shardSource(std::uint32_t shard) override
    {
        return sources[shard];
    }

  private:
    std::vector<std::vector<BlockId>> traces;
    std::deque<TraceSource> sources;
};

} // namespace

// ------------------------------------------------------- ShardSplitter

ShardSplitter::ShardSplitter(std::vector<std::uint32_t> shardOfBlock,
                             std::uint32_t numShards)
    : nShards(numShards), shardOf_(std::move(shardOfBlock))
{
    LAORAM_ASSERT(nShards >= 1, "need at least one shard");
    LAORAM_ASSERT(!shardOf_.empty(), "empty block space");

    localOf_.resize(shardOf_.size());
    globals_.resize(nShards);
    for (BlockId g = 0; g < shardOf_.size(); ++g) {
        const std::uint32_t s = shardOf_[g];
        LAORAM_ASSERT(s < nShards, "block ", g, " assigned to shard ",
                      s, " of ", nShards);
        localOf_[g] = globals_[s].size();
        globals_[s].push_back(g);
    }
}

ShardSplitter
ShardSplitter::hashed(std::uint64_t numBlocks, std::uint32_t numShards,
                      std::uint64_t salt)
{
    LAORAM_ASSERT(numShards >= 1, "need at least one shard");
    std::vector<std::uint32_t> assignment(numBlocks);
    for (BlockId g = 0; g < numBlocks; ++g) {
        // Stateless SplitMix64 finaliser: shard choice decorrelated
        // from id locality, stable across runs and platforms.
        std::uint64_t state = g ^ salt;
        assignment[g] =
            static_cast<std::uint32_t>(splitMix64(state) % numShards);
    }
    return ShardSplitter(std::move(assignment), numShards);
}

ShardSplitter
ShardSplitter::fromAssignment(std::vector<std::uint32_t> shardOfBlock,
                              std::uint32_t numShards)
{
    return ShardSplitter(std::move(shardOfBlock), numShards);
}

std::vector<std::vector<BlockId>>
ShardSplitter::splitTrace(const std::vector<BlockId> &trace) const
{
    std::vector<std::vector<BlockId>> sub(nShards);
    for (BlockId g : trace) {
        LAORAM_ASSERT(g < shardOf_.size(), "trace block ", g,
                      " outside the sharded space");
        sub[shardOf_[g]].push_back(localOf_[g]);
    }
    return sub;
}

void
ShardSplitter::save(serde::Serializer &s) const
{
    s.u32(nShards);
    s.u64(shardOf_.size());
    for (std::uint32_t shard : shardOf_)
        s.u32(shard);
}

ShardSplitter
ShardSplitter::restore(serde::Deserializer &d)
{
    const std::uint32_t shards = d.u32();
    const std::uint64_t blocks = d.u64();
    if (shards == 0)
        throw serde::SnapshotError(
            "shard manifest declares zero shards");
    if (blocks == 0)
        throw serde::SnapshotError(
            "shard manifest declares an empty block space");
    std::vector<std::uint32_t> assignment(blocks);
    for (std::uint64_t g = 0; g < blocks; ++g) {
        assignment[g] = d.u32();
        if (assignment[g] >= shards)
            throw serde::SnapshotError(
                "shard manifest assigns block " + std::to_string(g)
                + " to shard " + std::to_string(assignment[g])
                + " of " + std::to_string(shards));
    }
    return fromAssignment(std::move(assignment), shards);
}

// ------------------------------------------------------ ShardedLaoram

std::uint64_t
ShardedLaoram::shardSeed(std::uint64_t baseSeed, std::uint32_t shard)
{
    // Stable pure function of (base seed, shard): one SplitMix64 step
    // per shard index keeps the per-shard streams decorrelated while a
    // standalone reference engine can re-derive the exact seed.
    std::uint64_t state =
        baseSeed + 0x9E3779B97F4A7C15ULL * (shard + 1ULL);
    return splitMix64(state);
}

ShardedLaoram::ShardedLaoram(const ShardedLaoramConfig &cfg)
    : ShardedLaoram(cfg,
                    ShardSplitter::hashed(cfg.engine.base.numBlocks,
                                          cfg.numShards))
{
}

ShardedLaoram::ShardedLaoram(const ShardedLaoramConfig &cfg,
                             ShardSplitter splitter)
    : cfg(cfg), splitter_(std::move(splitter))
{
    LAORAM_ASSERT(cfg.numShards >= 1, "need at least one shard");
    LAORAM_ASSERT(splitter_.numShards() == cfg.numShards,
                  "splitter shard count ", splitter_.numShards(),
                  " != configured ", cfg.numShards);
    LAORAM_ASSERT(splitter_.numBlocks() == cfg.engine.base.numBlocks,
                  "splitter covers ", splitter_.numBlocks(),
                  " blocks, config expects ",
                  cfg.engine.base.numBlocks);
    if (!cfg.shardEndpoints.empty()
        && cfg.shardEndpoints.size() != cfg.numShards) {
        LAORAM_FATAL("shardEndpoints lists ",
                     cfg.shardEndpoints.size(), " node(s) for ",
                     cfg.numShards,
                     " shards; every shard tree needs its own "
                     "laoram_node");
    }
    // Restore-or-fresh: a configured restore replaces the splitter
    // with the manifest's recorded assignment *before* the engines
    // are built, so per-shard geometry derives from the restored
    // routing (which may be a custom or post-reshard table, not the
    // default hash split).
    if (cfg.engine.base.checkpoint.restore
        && !cfg.engine.base.checkpoint.path.empty())
        restoreManifest();
    buildEngines();
}

void
ShardedLaoram::restoreManifest()
{
    obs::TraceSpan span("restore", cfg.numShards);
    const std::string &path = cfg.engine.base.checkpoint.path;
    const std::vector<std::uint8_t> payload = serde::unseal(
        serde::SnapshotKind::ShardedManifest, serde::readFile(path));
    serde::Deserializer d(payload);
    ShardSplitter restored = ShardSplitter::restore(d);
    if (!d.atEnd())
        throw serde::SnapshotError(
            "shard manifest has trailing bytes after the assignment "
            "table");
    if (restored.numShards() != cfg.numShards)
        throw serde::SnapshotError(
            "shard manifest records " + std::to_string(restored.numShards())
            + " shards but this deployment is configured for "
            + std::to_string(cfg.numShards));
    if (restored.numBlocks() != cfg.engine.base.numBlocks)
        throw serde::SnapshotError(
            "shard manifest covers " + std::to_string(restored.numBlocks())
            + " blocks but this deployment is configured for "
            + std::to_string(cfg.engine.base.numBlocks));
    splitter_ = std::move(restored);
}

std::string
ShardedLaoram::shardCheckpointPath(const std::string &basePath,
                                   std::uint32_t shard) const
{
    // Mirror oram::shardEngineConfig's sidecar suffix so the engines
    // built from shardEngineConfigFor restore exactly these files.
    return basePath + ".shard-"
           + std::to_string(shardSeed(cfg.engine.base.seed, shard));
}

void
ShardedLaoram::checkpointToFile(const std::string &basePath)
{
    LAORAM_ASSERT(!basePath.empty(),
                  "sharded checkpoint needs a base path");
    obs::TraceSpan span("checkpoint", cfg.numShards);
    serde::Serializer body;
    splitter_.save(body);
    serde::writeFileAtomic(
        basePath,
        serde::seal(serde::SnapshotKind::ShardedManifest, body.take()));
    for (std::uint32_t s = 0; s < cfg.numShards; ++s)
        engines_[s]->checkpointToFile(shardCheckpointPath(basePath, s));
}

void
ShardedLaoram::reshard(std::uint32_t newShards)
{
    reshard(ShardSplitter::hashed(splitter_.numBlocks(), newShards));
}

void
ShardedLaoram::reshard(ShardSplitter newSplitter)
{
    LAORAM_ASSERT(newSplitter.numBlocks() == splitter_.numBlocks(),
                  "reshard must preserve the block space: new splitter "
                  "covers ",
                  newSplitter.numBlocks(), " blocks, engine has ",
                  splitter_.numBlocks());

    obs::TraceSpan span("reshard", newSplitter.numShards());
    const std::uint64_t numBlocks = splitter_.numBlocks();
    const bool hasPayloads = cfg.engine.base.payloadBytes > 0;

    // Drain: pull every logical block out through its source shard's
    // oblivious read path. The source engines are torn down right
    // after, so the drain's position-map churn is throwaway — only
    // the payload bytes migrate.
    std::vector<std::vector<std::uint8_t>> payloads;
    if (hasPayloads) {
        payloads.resize(numBlocks);
        for (BlockId g = 0; g < numBlocks; ++g)
            engines_[splitter_.shardOf(g)]->readBlock(
                splitter_.localId(g), payloads[g]);
    }

    // Tear down the source engines *before* building the targets:
    // shard seeds (and thus storage/sidecar paths) are pure functions
    // of (base seed, shard index), so source and target shard files
    // can collide on disk — destruction flushes and unmaps the old
    // trees first, and the fresh build below may then safely
    // re-initialise those paths.
    engines_.clear();
    splitter_ = std::move(newSplitter);
    cfg.numShards = splitter_.numShards();
    // The rebuilt engines' state comes from the migration, not from
    // stale artifacts: never reopen a pre-reshard tree (its geometry
    // is dead) and never restore a pre-reshard sidecar.
    cfg.engine.base.storage.keepExisting = false;
    cfg.engine.base.checkpoint.restore = false;
    buildEngines();

    // Re-insert in global-id order through the target engines' write
    // path, then re-install the user's touch callback on the new
    // engines.
    if (hasPayloads) {
        for (BlockId g = 0; g < numBlocks; ++g)
            engines_[splitter_.shardOf(g)]->writeBlock(
                splitter_.localId(g), payloads[g]);
    }
    if (touchFn_)
        setTouchCallback(touchFn_);
}

LaoramConfig
ShardedLaoram::shardEngineConfigFor(std::uint32_t shard) const
{
    LaoramConfig sc = cfg.engine;
    // Geometry shrinks to the shard's slice; the seed is the shard's
    // own. An empty shard still builds a minimal 1-block tree so the
    // engine array stays dense (its sub-trace is empty anyway).
    sc.base = oram::shardEngineConfig(
        cfg.engine.base,
        std::max<std::uint64_t>(splitter_.shardBlocks(shard), 1),
        shardSeed(cfg.engine.base.seed, shard));
    // One source of truth for window boundaries: the pipeline window.
    sc.lookaheadWindow = cfg.pipeline.windowAccesses;
    // The operator-facing cache budget is for the whole fleet; each
    // shard engine owns an equal slice (at least one row's worth so
    // an enabled cache never silently degrades to disabled).
    if (cfg.engine.cache.enabled())
        sc.cache.capacityBytes = std::max<std::uint64_t>(
            cfg.engine.cache.capacityBytes / cfg.numShards,
            cfg.engine.base.payloadBytes);
    // Multi-node serving: each shard's tree lives on its own
    // laoram_node. The endpoint replaces any local path — the node
    // owns the shard file, the client only dials.
    if (!cfg.shardEndpoints.empty()) {
        sc.base.storage.kind = storage::BackendKind::Remote;
        sc.base.storage.path.clear();
        sc.base.storage.remote.endpoint = cfg.shardEndpoints[shard];
    }
    return sc;
}

void
ShardedLaoram::buildEngines()
{
    engines_.reserve(cfg.numShards);
    for (std::uint32_t s = 0; s < cfg.numShards; ++s)
        engines_.push_back(
            std::make_unique<Laoram>(shardEngineConfigFor(s)));
}

void
ShardedLaoram::setTouchCallback(Laoram::TouchFn fn)
{
    touchFn_ = fn; // kept so reshard() can re-install on new engines
    for (std::uint32_t s = 0; s < cfg.numShards; ++s) {
        if (!fn) {
            engines_[s]->setTouchCallback(nullptr);
            continue;
        }
        // Each shard engine sees local ids; translate back to the
        // global id before handing the payload to the user callback.
        const ShardSplitter &split = splitter_;
        engines_[s]->setTouchCallback(
            [fn, s, &split](BlockId local,
                            std::vector<std::uint8_t> &payload) {
                fn(split.globalId(s, local), payload);
            });
    }
}

ShardedPipelineReport
ShardedLaoram::runTrace(const std::vector<BlockId> &trace)
{
    TraceShardSource source(splitter_.splitTrace(trace),
                            cfg.pipeline.windowAccesses);
    return serve(source);
}

ShardedPipelineReport
ShardedLaoram::serve(ShardedServeSource &source)
{
    using WallClock = std::chrono::steady_clock;

    ShardedPipelineReport rep;
    rep.shards.resize(cfg.numShards);

    // One lane per shard: thread s runs shard s's full two-stage
    // pipeline (serving stage on the thread, preprocessing on the
    // pipeline's own pool), so every shard stream is drained at once
    // even when a source only ends its streams on shutdown.
    std::mutex errorMu;
    std::exception_ptr firstError;

    const WallClock::time_point runStart = WallClock::now();
    auto lane = [&](std::uint32_t s) {
        try {
            obs::traceSetThreadName("lane-" + std::to_string(s));
            const ActiveLane active;
            obs::TraceSpan laneSpan("lane", s);
            ShardReport &sr = rep.shards[s];
            const std::uint64_t prepBefore =
                engines_[s]->accessesPreprocessed();
            const mem::TrafficCounters before =
                engines_[s]->meter().counters();
            BatchPipeline pipe(*engines_[s], cfg.pipeline);
            sr.pipeline = pipe.run(source.shardSource(s));
            sr.accesses =
                engines_[s]->accessesPreprocessed() - prepBefore;
            sr.traffic = engines_[s]->meter().counters().since(before);
        } catch (...) {
            std::lock_guard<std::mutex> lock(errorMu);
            if (!firstError)
                firstError = std::current_exception();
        }
    };

    if (cfg.numShards == 1) {
        lane(0); // serve inline: no thread for one lane
    } else {
        std::vector<std::thread> lanes;
        lanes.reserve(cfg.numShards);
        for (std::uint32_t s = 0; s < cfg.numShards; ++s)
            lanes.emplace_back(lane, s);
        for (std::thread &t : lanes)
            t.join();
    }
    if (firstError)
        std::rethrow_exception(firstError);

    const double wallNs = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            WallClock::now() - runStart)
            .count());

    aggregateShardReports(rep, wallNs);

    // Request latency: merge every lane's histogram (online sources
    // record one per lane; trace replay has none and leaves it zero).
    StreamingHistogram merged;
    for (std::uint32_t s = 0; s < cfg.numShards; ++s)
        if (const StreamingHistogram *h =
                source.shardSource(s).latencyHistogram())
            merged.merge(*h);
    if (merged.count() > 0)
        rep.aggregate.latency = merged.report();
    return rep;
}

void
ShardedLaoram::aggregateShardReports(ShardedPipelineReport &rep,
                                     double wallTotalNs)
{
    // ---- Sums for work/traffic, max for elapsed time. Serve-thread
    // waits (fill, stall, reorder head-of-line) are *elapsed* time on
    // concurrent lanes: they overlap on the wall clock, so the honest
    // aggregate is the slowest lane, not the sum — summing them used
    // to report more stall time than the whole run took.
    for (const ShardReport &sr : rep.shards) {
        rep.aggregate.windows += sr.pipeline.windows;
        rep.aggregate.simNs += sr.pipeline.simNs;
        rep.aggregate.wallPrepNs += sr.pipeline.wallPrepNs;
        rep.aggregate.wallServeNs += sr.pipeline.wallServeNs;
        rep.aggregate.wallFillNs =
            std::max(rep.aggregate.wallFillNs, sr.pipeline.wallFillNs);
        rep.aggregate.wallStallNs = std::max(rep.aggregate.wallStallNs,
                                             sr.pipeline.wallStallNs);
        rep.aggregate.wallLinkPassNs =
            std::max(rep.aggregate.wallLinkPassNs,
                     sr.pipeline.wallLinkPassNs);
        rep.aggregate.wallReorderStallNs =
            std::max(rep.aggregate.wallReorderStallNs,
                     sr.pipeline.wallReorderStallNs);
        rep.aggregate.wallIoNs += sr.pipeline.wallIoNs;
        rep.aggregate.cache.accumulate(sr.pipeline.cache);
        rep.traffic += sr.traffic;
        rep.simNs = std::max(rep.simNs, sr.pipeline.simNs);
        // Prep threads live at once: every shard lane runs
        // concurrently, and an inline (Simulated) lane runs none.
        // Per-thread vectors stay per-shard in rep.shards[i].
        rep.aggregate.prepThreads += sr.pipeline.prepThreads;
    }
    rep.aggregate.wallTotalNs = wallTotalNs;

    // Measured hidden fraction over the whole run: the prep-weighted
    // average of the per-shard fractions (each already clamped to
    // [0, 1]), so the aggregate stays in range and big shards
    // dominate.
    double wallWeight = 0.0, wallHidden = 0.0;
    for (const ShardReport &sr : rep.shards) {
        wallWeight += sr.pipeline.wallPrepNs;
        wallHidden += sr.pipeline.wallPrepNs
                      * sr.pipeline.measuredPrepHiddenFraction;
    }
    if (wallWeight > 0.0)
        rep.aggregate.measuredPrepHiddenFraction =
            wallHidden / wallWeight;
    // Run-wide I/O share of serve time: total backend I/O over total
    // serve wall time (equivalently the serve-weighted average of the
    // per-shard fractions).
    if (rep.aggregate.wallServeNs > 0.0) {
        rep.aggregate.ioServeFraction =
            std::clamp(rep.aggregate.wallIoNs
                           / rep.aggregate.wallServeNs,
                       0.0, 1.0);
    }
}

mem::TrafficCounters
ShardedLaoram::totalCounters() const
{
    mem::TrafficCounters total;
    for (const auto &engine : engines_)
        total += engine->meter().counters();
    return total;
}

double
ShardedLaoram::simNs() const
{
    double ns = 0.0;
    for (const auto &engine : engines_)
        ns = std::max(ns, engine->meter().clock().nanoseconds());
    return ns;
}

std::uint64_t
ShardedLaoram::serverBytes() const
{
    std::uint64_t bytes = 0;
    for (const auto &engine : engines_)
        bytes += engine->geometry().serverBytes();
    return bytes;
}

} // namespace laoram::core
