#include "core/laoram_client.hh"

#include "core/pipeline.hh"
#include "util/logging.hh"

namespace laoram::core {

Laoram::Laoram(const LaoramConfig &cfg)
    : TreeOramBase(cfg.base), lcfg(cfg)
{
    LAORAM_ASSERT(lcfg.superblockSize >= 1,
                  "superblock size must be >= 1");
    if (lcfg.cache.enabled()) {
        if (lcfg.base.payloadBytes == 0)
            LAORAM_FATAL("the hot-row cache caches payload bytes; "
                         "it cannot be enabled on a metadata-only "
                         "engine (payloadBytes == 0)");
        cache_ = std::make_unique<cache::HotEmbeddingCache>(
            lcfg.cache, lcfg.base.payloadBytes);
    }
    // Last: restore may replay a snapshot into the cache just built.
    restoreAtConstructionIfConfigured();
}

std::string
Laoram::name() const
{
    const char *tree = geom.profile().isUniform() ? "" : "-fat";
    return std::string("LAORAM") + tree + "/S"
        + std::to_string(lcfg.superblockSize);
}

template <typename Apply>
void
Laoram::withHotCache(BlockId id, std::vector<std::uint8_t> &payload,
                     bool newOp, Apply &&apply)
{
    if (!cache_) {
        apply();
        return;
    }
    const cache::AccessOutcome outcome =
        cache_->beginScheduledAccess(id, payload);
    // Flushed: admission-time ops were already applied to the row,
    // which beginScheduledAccess copied into the payload, and this
    // access's path write is their coalesced write-back. A scheduled
    // touch stops here (running touchFn again would apply them
    // twice); a new op still applies on top of them.
    if (outcome == cache::AccessOutcome::Flushed && !newOp)
        return;
    apply();
    if (outcome == cache::AccessOutcome::Miss)
        cache_->fill(id, payload);
    else
        cache_->completeScheduledAccess(id, payload);
}

void
Laoram::access(BlockId id, oram::AccessOp op, const std::uint8_t *in,
               std::size_t len, std::vector<std::uint8_t> *out)
{
    LAORAM_ASSERT(id < cfg.numBlocks, "block ", id, " out of range");
    mtr.recordLogicalAccess();

    // The single access runs the cache protocol of a scheduled touch,
    // so a resident row, which may carry deferred admission-time
    // updates newer than the stash, stays the authoritative copy.
    const Leaf current = posmap_.get(id);
    accessPaths(id, id, id + 1, &current, 1,
                [&](oram::StashEntry &entry) {
                    withHotCache(id, entry.payload, true, [&] {
                        applyOp(entry, op, in, len, out);
                    });
                });
}

void
Laoram::runTrace(const std::vector<BlockId> &trace)
{
    if (trace.empty())
        return;
    // Adapter over the unified run loop: a Simulated-mode pipeline on
    // the calling thread is exactly the serial flow (windows numbered
    // from 0, each preprocessed with its window-derived path stream,
    // served in order) — the determinism contract's reference leg.
    PipelineConfig pc;
    pc.mode = PipelineMode::Simulated;
    pc.windowAccesses =
        lcfg.lookaheadWindow == 0 ? trace.size() : lcfg.lookaheadWindow;
    BatchPipeline(*this, pc).run(trace);
}

void
Laoram::serveWindow(const PreprocessResult &window)
{
    nBins += window.bins.size();
    nPreprocessed += window.totalAccesses;
    nFutureLinked += window.futureLinked;
    ++nWindowsServed;

    if (lcfg.batchAccesses == 0) {
        for (const SuperblockBin &bin : window.bins)
            accessBatch(&bin, 1);
        return;
    }

    // Group consecutive bins into training batches by raw access
    // count and serve each batch with one union read/write.
    std::size_t first = 0;
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < window.bins.size(); ++i) {
        acc += window.bins[i].rawAccesses;
        if (acc >= lcfg.batchAccesses) {
            accessBatch(window.bins.data() + first, i - first + 1);
            first = i + 1;
            acc = 0;
        }
    }
    if (first < window.bins.size())
        accessBatch(window.bins.data() + first,
                    window.bins.size() - first);
}

void
Laoram::accessBatch(const SuperblockBin *bins, std::size_t count)
{
    LAORAM_ASSERT(count > 0, "empty training batch");

    // Gather the batch's current paths (the union read de-duplicates).
    scratchLeaves.clear();
    std::uint64_t raw = 0;
    for (std::size_t b = 0; b < count; ++b) {
        const SuperblockBin &bin = bins[b];
        LAORAM_ASSERT(!bin.members.empty(), "empty superblock bin");
        LAORAM_ASSERT(bin.members.size() == bin.nextPaths.size(),
                      "bin missing future-path metadata");
        raw += bin.rawAccesses;
        for (BlockId id : bin.members) {
            if (stash_.contains(id))
                mtr.recordStashHit();
            scratchLeaves.push_back(posmap_.get(id));
        }
    }
    mtr.recordLogicalAccesses(raw);

    pathIo_.readPaths(scratchLeaves.data(), scratchLeaves.size());

    // Resolve every member's future path first — random draws happen
    // in stream order, so the rng stream matches the per-member code
    // this replaces — then apply the whole batch's remaps in one
    // position-map pass. A block appearing in several bins ends up on
    // its final future path (setBatch applies in order, last wins) —
    // exactly as if the bins ran back-to-back.
    scratchRemapIds.clear();
    scratchRemapLeaves.clear();
    for (std::size_t b = 0; b < count; ++b) {
        const SuperblockBin &bin = bins[b];
        for (std::size_t j = 0; j < bin.members.size(); ++j) {
            scratchRemapIds.push_back(bin.members[j]);
            scratchRemapLeaves.push_back(
                bin.nextPaths[j] == kNoFuturePath ? randomLeaf()
                                                  : bin.nextPaths[j]);
        }
    }
    posmap_.setBatch(scratchRemapIds.data(), scratchRemapLeaves.data(),
                     scratchRemapIds.size());

    // Touch every member in stream order (repeated members keep
    // re-targeting their stash entry, so the final entry leaf matches
    // the per-member code path).
    for (std::size_t i = 0; i < scratchRemapIds.size(); ++i) {
        const BlockId id = scratchRemapIds[i];
        std::vector<std::uint8_t> &payload =
            stash_.remap(id, scratchRemapLeaves[i], cfg.payloadBytes)
                .payload;
        withHotCache(id, payload, false, [&] {
            if (touchFn)
                touchFn(id, payload);
        });
    }

    pathIo_.writePaths(scratchLeaves.data(), scratchLeaves.size());
    pathIo_.drain(rng, cfg.stashHighWater, cfg.stashLowWater);
    mtr.observeStashSize(stash_.size());
}

void
Laoram::saveClientState(serde::Serializer &s) const
{
    TreeOramBase::saveClientState(s);
    // superblockSize shapes bin formation, so it is part of the
    // geometry a snapshot must agree on.
    s.u64(lcfg.superblockSize);
    s.u64(nBins);
    s.u64(nPreprocessed);
    s.u64(nFutureLinked);
    s.u64(nWindowsServed);
    // Hot-cache contents are trusted client state (which ids are hot
    // is exactly the access pattern ORAM hides), so they ride in the
    // client snapshot and restore warm.
    s.u8(cache_ ? 1 : 0);
    if (cache_)
        cache_->save(s);
}

void
Laoram::restoreClientState(serde::Deserializer &d)
{
    TreeOramBase::restoreClientState(d);
    const std::uint64_t sbSize = d.u64();
    if (sbSize != lcfg.superblockSize)
        throw serde::SnapshotError(
            "snapshot superblock size " + std::to_string(sbSize)
            + " does not match this engine's "
            + std::to_string(lcfg.superblockSize));
    nBins = d.u64();
    nPreprocessed = d.u64();
    nFutureLinked = d.u64();
    nWindowsServed = d.u64();
    const std::uint8_t hasCache = d.u8();
    if (hasCache != 0 && !cache_)
        throw serde::SnapshotError(
            "snapshot carries a hot-cache section but this engine "
            "has no cache configured; re-enable the cache (or "
            "re-checkpoint without one) to restore");
    if (hasCache != 0) {
        cache_->restore(d);
    } else if (cache_) {
        // Snapshot predates the cache being enabled: start cold.
        cache_->clear();
    }
}

} // namespace laoram::core
