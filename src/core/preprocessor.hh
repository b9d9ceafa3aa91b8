/**
 * @file
 * The LAORAM preprocessor (paper §IV-B).
 *
 * A trusted client-side component that scans upcoming training samples
 * and emits superblock metadata:
 *
 *   1. *Dataset scan* — walk the future access stream, packing the
 *      next S distinct embedding indices into a superblock bin
 *      (duplicates inside an open bin collapse, matching the paper's
 *      "identify unique indices" preprocessing).
 *   2. *Superblock path generation* — draw one uniform path per bin,
 *      then compute, for every bin member, the path of the next bin
 *      that contains it (a single backward sweep). This
 *      (superblock -> future path) metadata is what the trainer GPU
 *      consumes. A member whose next bin lies in a later window keeps
 *      kNoFuturePath here; LookaheadLinks (below) fills it in from a
 *      one-time backward pass over the whole known stream.
 *
 * Security note (paper §VI-C): the preprocessor reads only encrypted
 * training samples inside the trusted client; the entry values it
 * extracts never touch untrusted memory, and path choices are uniform
 * and independent of them.
 */

#ifndef LAORAM_CORE_PREPROCESSOR_HH
#define LAORAM_CORE_PREPROCESSOR_HH

#include <cstdint>
#include <limits>
#include <vector>

#include "core/superblock.hh"
#include "util/rng.hh"

namespace laoram::core {

/**
 * Look-ahead horizon meaning "up to the end of the known stream"
 * (LaoramConfig::lookaheadHorizon's default).
 */
inline constexpr std::uint64_t kWholeStream =
    std::numeric_limits<std::uint64_t>::max();

/** Preprocessor knobs. */
struct PreprocessorConfig
{
    std::uint64_t superblockSize = 4; ///< S: distinct ids per bin
    std::uint64_t numLeaves = 0;      ///< path-domain size (required)
};

/** Output of one preprocessing window. */
struct PreprocessResult
{
    std::vector<SuperblockBin> bins;  ///< in stream order
    std::uint64_t totalAccesses = 0;  ///< stream positions consumed
    std::uint64_t uniqueBlocks = 0;   ///< distinct ids in the window
    std::uint64_t futureLinked = 0;   ///< members with a known next path
};

/**
 * One fully preprocessed look-ahead window, ready to serve. Immutable
 * after construction: the preprocessor thread builds it, hands it over
 * the pipeline queue, and never touches it again — which is what makes
 * the two-stage hand-off race-free by construction.
 */
struct WindowSchedule
{
    std::uint64_t windowIndex = 0; ///< position in the window stream
    std::uint64_t traceOffset = 0; ///< first trace index of the window
    PreprocessResult result;       ///< bins + path metadata
};

/**
 * Pure preprocessing step: scan [begin, end) into superblock bins with
 * future-path metadata. All state is passed explicitly (@p rng carries
 * the path-draw stream), so concurrent calls with distinct Rng
 * instances are thread-safe.
 */
PreprocessResult preprocessWindow(const PreprocessorConfig &cfg,
                                  const BlockId *begin,
                                  const BlockId *end, Rng &rng);

/**
 * Scans future access streams into superblock metadata.
 *
 * Path draws are keyed by *window index*, not by call order: window w
 * always draws from Rng(windowSeed(seed, w)), a pure function of the
 * construction seed. That makes runWindow safe to call concurrently
 * from a pool of preprocessor threads in any interleaving — window w
 * produces the same bytes whether it is preprocessed first, last, or
 * in parallel with its neighbours — which is the property the
 * multi-preprocessor pipeline's determinism contract rests on
 * (together with the serving-side reorder stage; see
 * core/reorder_window.hh).
 */
class Preprocessor
{
  public:
    Preprocessor(const PreprocessorConfig &cfg, std::uint64_t seed);

    /**
     * Stable per-window path-draw seed: a pure function of the
     * preprocessor seed and the window index (SplitMix64 over a
     * golden-ratio stride, matching the shard-seed idiom), so window
     * streams are decorrelated yet reproducible from (seed, w) alone.
     */
    static std::uint64_t windowSeed(std::uint64_t baseSeed,
                                    std::uint64_t windowIndex);

    /**
     * Preprocess one look-ahead window as *window index 0*. Repeated
     * calls replay the identical window-0 path stream — correct for
     * one-shot scans (tests, benches), but slicing a trace into
     * several windows this way would correlate their superblock
     * paths; use runWindow with distinct indices for that (as
     * Laoram::runTrace and the pipelines do).
     *
     * @param stream future block accesses, in training order
     * @return bins with paths and per-member future paths
     */
    PreprocessResult run(const std::vector<BlockId> &stream) const;

    /** Same, over a sub-range [begin, end) of a larger trace. */
    PreprocessResult run(const BlockId *begin, const BlockId *end) const;

    /**
     * Preprocess window @p windowIndex of a larger trace into an
     * immutable schedule. Thread-safe: concurrent calls with distinct
     * window indices never touch shared mutable state.
     */
    WindowSchedule runWindow(std::uint64_t windowIndex,
                             std::uint64_t traceOffset,
                             const BlockId *begin,
                             const BlockId *end) const;

    const PreprocessorConfig &config() const { return cfg; }

    /** The seed per-window streams derive from. */
    std::uint64_t seed() const { return baseSeed; }

  private:
    PreprocessorConfig cfg;
    std::uint64_t baseSeed;
};

/**
 * The access stream a source knows in advance, sliced into windows
 * exactly as the source hands them out: stream window k covers
 * [k * windowAccesses, min((k + 1) * windowAccesses, size)) and
 * carries window index firstWindowIndex + k. A resumed trace passes
 * only its remaining suffix, numbered from the window it resumes at.
 * The data must outlive every run that serves the stream.
 */
struct KnownStream
{
    const BlockId *data = nullptr;
    std::uint64_t size = 0;
    std::uint64_t windowAccesses = 1;
    std::uint64_t firstWindowIndex = 0;

    std::uint64_t
    numWindows() const
    {
        return (size + windowAccesses - 1) / windowAccesses;
    }
};

/**
 * Look-ahead links across windows: the paper's whole-epoch look-ahead
 * (§IV-B-2), decoupled from the serving window.
 *
 * preprocessWindow links a bin member only to a later bin of its own
 * window, so a member's last occurrence in window w keeps
 * kNoFuturePath and is remapped to a uniform leaf at access. The link
 * table gives each such entry the path of the first bin in a *later*
 * window that holds the member: the member then waits on that bin's
 * path, and that bin reads one path for it too.
 *
 * Contract:
 *  - build() walks the stream's windows from last to first, forms
 *    each with the same preprocessWindow and the same
 *    Rng(windowSeed(seed, w)) as Preprocessor::runWindow at absolute
 *    window index w (there is no second bin-formation code), and
 *    sweeps it against one scratch array of numBlocks leaves indexed
 *    by id, freed when the pass ends.
 *  - Window w's slice holds one entry per kNoFuturePath member of the
 *    window as preprocessWindow forms it, in bin then member order:
 *    the path of the member's first bin in a later window, or
 *    kNoFuturePath when there is none. At a finite horizon H a link
 *    is kept only when that bin starts fewer than H accesses after
 *    the member's own bin; in-window links are never affected.
 *  - Links are a pure function of (seed, absolute window index, window
 *    size, stream) and only look forward, so a resumed stream (the
 *    suffix, numbered from where it resumes) gets the same links for
 *    every window that remains.
 *  - Every bin still draws its own uniform path; a link only decides
 *    earlier which drawn path a member waits on, exactly as an
 *    in-window link does, so the server-visible paths stay uniform.
 */
class LookaheadLinks
{
  public:
    /** One backward pass over @p stream (see the class comment). */
    static LookaheadLinks build(const Preprocessor &prep,
                                const KnownStream &stream,
                                std::uint64_t horizon,
                                std::uint64_t numBlocks);

    /**
     * Fill window @p windowIndex's kNoFuturePath entries in @p res,
     * which must be that window as runWindow formed it; adds the new
     * links to res.futureLinked and returns how many there were.
     */
    std::uint64_t apply(std::uint64_t windowIndex,
                        PreprocessResult &res) const;

  private:
    /** Entry of a member with no later bin (leaves fit in 32 bits). */
    static constexpr std::uint32_t kNoLink =
        std::numeric_limits<std::uint32_t>::max();

    std::uint64_t firstWindow = 0;
    /**
     * The sweep appends windows last to first, so stream window k's
     * slice is [offsets[k + 1], offsets[k]).
     */
    std::vector<std::uint64_t> offsets;
    std::vector<std::uint32_t> links;
};

} // namespace laoram::core

#endif // LAORAM_CORE_PREPROCESSOR_HH
