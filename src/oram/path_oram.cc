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

    const Leaf current = posmap_.get(id);
    accessPaths(id, id, id + 1, &current, 1, [&](StashEntry &entry) {
        applyOp(entry, op, in, len, out);
    });
}

} // namespace laoram::oram
