#include "oram/engine.hh"

#include <algorithm>

#include "util/logging.hh"

namespace laoram::oram {

EngineConfig
shardEngineConfig(const EngineConfig &base, std::uint64_t shardBlocks,
                  std::uint64_t shardSeed)
{
    LAORAM_ASSERT(shardBlocks >= 1,
                  "a shard must cover at least one block");
    EngineConfig cfg = base;
    cfg.numBlocks = shardBlocks;
    cfg.seed = shardSeed;
    // Every shard tree needs its own backing file; the shard seed is
    // a stable pure function of (base seed, shard), so a standalone
    // reference engine derives the identical path. The checkpoint
    // sidecar gets the same suffix: each shard engine snapshots and
    // restores its own trusted state next to its own tree.
    if (!cfg.storage.path.empty())
        cfg.storage.path += ".shard-" + std::to_string(shardSeed);
    if (!cfg.checkpoint.path.empty())
        cfg.checkpoint.path += ".shard-" + std::to_string(shardSeed);
    return cfg;
}

OramEngine::OramEngine(const EngineConfig &cfg)
    : cfg(cfg),
      geom(cfg.numBlocks, cfg.blockBytes, cfg.profile, cfg.treetopLevels),
      rng(cfg.seed)
{
    LAORAM_ASSERT(cfg.stashLowWater <= cfg.stashHighWater,
                  "eviction low-water above high-water");
}

void
OramEngine::readBlock(BlockId id, std::vector<std::uint8_t> &out)
{
    access(id, AccessOp::Read, nullptr, 0, &out);
}

void
OramEngine::writeBlock(BlockId id, const std::vector<std::uint8_t> &data)
{
    access(id, AccessOp::Write, data.data(), data.size(), nullptr);
}

void
OramEngine::runTrace(const std::vector<BlockId> &trace)
{
    for (BlockId id : trace)
        touch(id);
}

TreeOramBase::TreeOramBase(const EngineConfig &cfg)
    : OramEngine(cfg),
      storage_(geom, cfg.payloadBytes, cfg.encrypt, cfg.seed ^ 0xC0FFEE,
               cfg.storage),
      posmap_(cfg.numBlocks, geom.numLeaves(), rng),
      stash_(),
      pathIo_(geom, storage_, stash_, mtr)
{
    // The actual restore (when cfg.checkpoint.restore is set) runs in
    // the final engine's constructor, which knows the full snapshot
    // layout; here we only decide fresh vs restorable vs fatal.
    resolveRestoreOrFresh(storage_, cfg);
}

void
resolveRestoreOrFresh(const ServerStorage &storage,
                      const EngineConfig &cfg)
{
    const bool restore =
        cfg.checkpoint.restore && !cfg.checkpoint.path.empty();
    if (!storage.reopened()) {
        // A fresh tree has no previous contents for a snapshot's
        // position map to point into; restoring against it would
        // serve garbage, so refuse up front.
        if (restore) {
            LAORAM_FATAL(
                "--restore requested but the tree storage initialised "
                "fresh; a client-state snapshot is only meaningful "
                "against the persisted tree it was taken with. Reopen "
                "the original tree with --storage-keep (and the "
                "original --storage-path) alongside --restore "
                "--checkpoint-path=", cfg.checkpoint.path);
        }
        return;
    }
    if (!restore) {
        LAORAM_FATAL(
            "storage.keepExisting reopened an existing tree, but the "
            "engine's trusted client state (position map, stash, RNG "
            "streams) was not restored with it; serve this tree by "
            "passing --restore --checkpoint-path=<snapshot> (a sidecar "
            "written by checkpoint() / --checkpoint-path on the "
            "previous run), or drop --storage-keep / delete the tree "
            "file to start fresh");
    }
    if (!serde::fileExists(cfg.checkpoint.path)) {
        LAORAM_FATAL(
            "--restore requested but no snapshot is present at ",
            cfg.checkpoint.path,
            "; this reopened tree is genuinely unrestorable without "
            "its client-state sidecar — recover the snapshot file, or "
            "drop --storage-keep / delete the tree file to start "
            "fresh");
    }
}

void
requireFreshStorage(const ServerStorage &storage, const EngineConfig &cfg,
                    const char *engineName)
{
    if (storage.reopened() || cfg.checkpoint.restore) {
        LAORAM_FATAL(
            engineName,
            " has no checkpoint/restore support for its trusted "
            "client state, so it can neither restore a snapshot "
            "(--restore) nor serve a tree reopened with "
            "storage.keepExisting; only the LAORAM/PathORAM family "
            "engines can (checkpoint() + --restore "
            "--checkpoint-path=<snapshot>). Drop --restore and "
            "keepExisting (or delete the tree file) to start fresh");
    }
}

namespace {

void
checkField(const char *name, std::uint64_t want, std::uint64_t got)
{
    if (want != got)
        throw serde::SnapshotError(
            std::string("snapshot geometry mismatch: ") + name +
            " is " + std::to_string(got) +
            " in the snapshot but this engine has " +
            std::to_string(want));
}

} // namespace

void
TreeOramBase::saveClientState(serde::Serializer &s) const
{
    // Geometry header first: restore validates every field before
    // touching any state.
    s.u64(cfg.numBlocks);
    s.u64(cfg.blockBytes);
    s.u64(cfg.payloadBytes);
    s.u64(geom.numLeaves());
    s.u64(geom.numNodes());
    s.u64(geom.treetopLevels());
    s.u8(cfg.encrypt ? 1 : 0);
    s.u64(cfg.seed);

    for (const mem::TrafficCounters::Field &f : mem::TrafficCounters::kFields)
        s.u64(mtr.counters().*f.member);
    s.u64(mtr.clock().picoseconds());
    rng.save(s);
    posmap_.save(s);
    stash_.save(s);
    pathIo_.save(s);
}

void
TreeOramBase::restoreClientState(serde::Deserializer &d)
{
    checkField("numBlocks", cfg.numBlocks, d.u64());
    checkField("blockBytes", cfg.blockBytes, d.u64());
    checkField("payloadBytes", cfg.payloadBytes, d.u64());
    checkField("numLeaves", geom.numLeaves(), d.u64());
    checkField("numNodes", geom.numNodes(), d.u64());
    checkField("treetopLevels", geom.treetopLevels(), d.u64());
    checkField("encrypt", cfg.encrypt ? 1 : 0, d.u8());
    checkField("seed", cfg.seed, d.u64());

    mem::TrafficCounters counters;
    for (const mem::TrafficCounters::Field &f : counters.kFields)
        counters.*f.member = d.u64();
    const std::uint64_t clockPs = d.u64();
    mtr.restoreState(counters, clockPs);
    rng.restore(d);
    posmap_.restore(d);
    stash_.restore(d);
    pathIo_.restore(d);
}

std::vector<std::uint8_t>
TreeOramBase::checkpoint()
{
    // Land the tree and the snapshot on the same boundary.
    storage_.flush();
    serde::Serializer s;
    saveClientState(s);
    return serde::seal(serde::SnapshotKind::Engine, s.take());
}

void
TreeOramBase::restoreFrom(const std::vector<std::uint8_t> &blob)
{
    const std::vector<std::uint8_t> payload =
        serde::unseal(serde::SnapshotKind::Engine, blob);
    serde::Deserializer d(payload);
    restoreClientState(d);
    if (!d.atEnd())
        throw serde::SnapshotError(
            "snapshot has " + std::to_string(d.remaining()) +
            " trailing bytes after the last section (engine type "
            "mismatch?)");
}

void
TreeOramBase::checkpointToFile(const std::string &path)
{
    serde::writeFileAtomic(path, checkpoint());
}

void
TreeOramBase::restoreFromFile(const std::string &path)
{
    restoreFrom(serde::readFile(path));
}

void
TreeOramBase::restoreAtConstructionIfConfigured()
{
    if (cfg.checkpoint.restore && !cfg.checkpoint.path.empty())
        restoreFromFile(cfg.checkpoint.path);
}

void
OramEngine::applyOp(StashEntry &entry, AccessOp op,
                    const std::uint8_t *in, std::size_t len,
                    std::vector<std::uint8_t> *out) const
{
    switch (op) {
      case AccessOp::Touch:
        break;
      case AccessOp::Read:
        if (out)
            *out = entry.payload;
        break;
      case AccessOp::Write: {
        LAORAM_ASSERT(len <= cfg.payloadBytes, "write of ", len,
                      " B exceeds payload capacity ", cfg.payloadBytes);
        entry.payload.assign(cfg.payloadBytes, 0);
        if (in && len > 0)
            std::copy(in, in + len, entry.payload.begin());
        break;
      }
    }
}

} // namespace laoram::oram
