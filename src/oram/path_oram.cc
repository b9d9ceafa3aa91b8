#include "oram/path_oram.hh"

#include "util/logging.hh"

namespace laoram::oram {

PathOram::PathOram(const EngineConfig &cfg) : TreeOramBase(cfg)
{
    restoreAtConstructionIfConfigured();
}

void
PathOram::access(BlockId id, AccessOp op, const std::uint8_t *in,
                 std::size_t len, std::vector<std::uint8_t> *out)
{
    LAORAM_ASSERT(id < cfg.numBlocks, "block ", id, " out of range");
    mtr.recordLogicalAccess();

    // (1) Look up the current path; even a stash-resident block incurs
    // a full path access so that the server-visible pattern stays
    // independent of stash state.
    const Leaf current = posmap_.get(id);
    if (stash_.contains(id))
        mtr.recordStashHit();

    // (2) Fetch the path.
    pathIo_.readPaths(&current, 1);

    // (3)+(4) Remap to an independent uniform leaf, then operate on
    // the block inside trusted memory.
    const Leaf next = randomLeaf();
    posmap_.set(id, next);
    StashEntry &entry = stash_.remap(id, next, cfg.payloadBytes);
    applyOp(entry, op, in, len, out);

    // (5) Greedy write-back along the path just read.
    pathIo_.writePaths(&current, 1);

    // §II-E: dummy reads once the stash passes its threshold.
    pathIo_.drain(rng, cfg.stashHighWater, cfg.stashLowWater);
    mtr.observeStashSize(stash_.size());
}

} // namespace laoram::oram
