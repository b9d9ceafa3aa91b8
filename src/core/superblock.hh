/**
 * @file
 * Superblock bins — the unit of LAORAM's look-ahead grouping.
 *
 * The preprocessor slices the future access stream into bins of (up to)
 * S *distinct* block ids, assigns each bin one uniform path, and
 * records for each member the path of the *next* bin that will access
 * it. At access time the whole bin is served and every member is
 * remapped to its recorded future path — which is how the next bin
 * ends up needing just one path read (paper §IV).
 */

#ifndef LAORAM_CORE_SUPERBLOCK_HH
#define LAORAM_CORE_SUPERBLOCK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "oram/types.hh"

namespace laoram::core {

using oram::BlockId;
using oram::Leaf;
using oram::kNoFuturePath;

/** One superblock bin produced by the preprocessor. */
struct SuperblockBin
{
    /** Distinct member block ids, in first-touch order. */
    std::vector<BlockId> members;

    /**
     * Future path per member (parallel to `members`): the path of the
     * next bin containing that block, or kNoFuturePath when no such
     * bin is known — the block does not reappear inside the window
     * and no link table (LookaheadLinks) reaches a later window that
     * holds it. The client then draws a uniform path, preserving
     * obliviousness.
     */
    std::vector<Leaf> nextPaths;

    /** The uniform path assigned to *this* bin. */
    Leaf path = 0;

    /** Stream positions collapsed into this bin (>= members.size()). */
    std::uint64_t rawAccesses = 0;

    /** Stream index of the bin's first access (diagnostics). */
    std::uint64_t firstIndex = 0;

    bool full(std::uint64_t superblockSize) const
    {
        return members.size() >= superblockSize;
    }
};

/**
 * Structural sanity check used by tests: members distinct, vectors
 * parallel, rawAccesses >= members.
 *
 * @return empty string when valid, else a description of the violation
 */
std::string validateBin(const SuperblockBin &bin);

} // namespace laoram::core

#endif // LAORAM_CORE_SUPERBLOCK_HH
