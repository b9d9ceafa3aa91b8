#include "core/preprocessor.hh"

#include <algorithm>
#include <unordered_map>

#include "util/logging.hh"

namespace laoram::core {

Preprocessor::Preprocessor(const PreprocessorConfig &cfg,
                           std::uint64_t seed)
    : cfg(cfg), baseSeed(seed)
{
    LAORAM_ASSERT(cfg.superblockSize >= 1,
                  "superblock size must be >= 1");
    LAORAM_ASSERT(cfg.numLeaves >= 1, "preprocessor needs numLeaves");
}

std::uint64_t
Preprocessor::windowSeed(std::uint64_t baseSeed,
                         std::uint64_t windowIndex)
{
    std::uint64_t state =
        baseSeed + 0x9E3779B97F4A7C15ULL * (windowIndex + 1);
    return splitMix64(state);
}

PreprocessResult
Preprocessor::run(const std::vector<BlockId> &stream) const
{
    return run(stream.data(), stream.data() + stream.size());
}

PreprocessResult
Preprocessor::run(const BlockId *begin, const BlockId *end) const
{
    Rng rng(windowSeed(baseSeed, 0));
    return preprocessWindow(cfg, begin, end, rng);
}

WindowSchedule
Preprocessor::runWindow(std::uint64_t windowIndex,
                        std::uint64_t traceOffset,
                        const BlockId *begin, const BlockId *end) const
{
    WindowSchedule sched;
    sched.windowIndex = windowIndex;
    sched.traceOffset = traceOffset;
    Rng rng(windowSeed(baseSeed, windowIndex));
    sched.result = preprocessWindow(cfg, begin, end, rng);
    return sched;
}

PreprocessResult
preprocessWindow(const PreprocessorConfig &cfg, const BlockId *begin,
                 const BlockId *end, Rng &rng)
{
    PreprocessResult res;
    res.totalAccesses = static_cast<std::uint64_t>(end - begin);

    // --- Step 1: dataset scan -> bins of S distinct ids. ---
    // A bin holds at most S ids, so a scan of its members is the
    // cheapest duplicate check.
    SuperblockBin open;
    open.firstIndex = 0;

    auto close_bin = [&](SuperblockBin &&bin) {
        bin.path = rng.nextBounded(cfg.numLeaves);
        res.bins.push_back(std::move(bin));
    };

    std::uint64_t index = 0;
    for (const BlockId *p = begin; p != end; ++p, ++index) {
        const BlockId id = *p;
        if (open.members.empty()) {
            open.firstIndex = index;
            open.members.reserve(std::min<std::uint64_t>(
                cfg.superblockSize, static_cast<std::uint64_t>(end - p)));
        }
        ++open.rawAccesses;
        if (std::find(open.members.begin(), open.members.end(), id)
            == open.members.end())
            open.members.push_back(id);
        if (open.full(cfg.superblockSize)) {
            close_bin(std::move(open));
            open = SuperblockBin{};
        }
    }
    if (!open.members.empty())
        close_bin(std::move(open));

    // --- Step 2: future-path metadata via one backward sweep. ---
    // nextPathOf[b] holds the path of the nearest *later* bin that
    // contains b (later relative to the bin being processed); at the
    // end it holds every distinct id of the window.
    std::unordered_map<BlockId, Leaf> nextPathOf;
    nextPathOf.reserve(res.bins.size() * cfg.superblockSize);
    for (std::size_t i = res.bins.size(); i-- > 0;) {
        SuperblockBin &bin = res.bins[i];
        bin.nextPaths.resize(bin.members.size(), kNoFuturePath);
        for (std::size_t j = 0; j < bin.members.size(); ++j) {
            auto it = nextPathOf.find(bin.members[j]);
            if (it != nextPathOf.end()) {
                bin.nextPaths[j] = it->second;
                ++res.futureLinked;
            }
        }
        // Only now does this bin become "the next occurrence" for the
        // bins that precede it.
        for (BlockId id : bin.members)
            nextPathOf[id] = bin.path;
    }
    res.uniqueBlocks = nextPathOf.size();
    return res;
}

LookaheadLinks
LookaheadLinks::build(const Preprocessor &prep, const KnownStream &stream,
                      std::uint64_t horizon, std::uint64_t numBlocks)
{
    LAORAM_ASSERT(stream.windowAccesses >= 1, "stream without windows");
    LAORAM_ASSERT(prep.config().numLeaves < kNoLink, "leaf domain of ",
                  prep.config().numLeaves, " does not fit a link entry");
    const std::uint64_t numWindows = stream.numWindows();
    const std::uint64_t window = stream.windowAccesses;

    LookaheadLinks out;
    out.firstWindow = stream.firstWindowIndex;
    out.offsets.assign(numWindows + 1, 0);
    // Each window holds at most one entry per access; pages past the
    // real count are never touched.
    out.links.reserve(stream.size);

    // next[id]: path of id's first bin in the windows swept so far
    // (the later ones); nextAt[id]: that bin's stream position, kept
    // only when a finite horizon needs it.
    std::vector<std::uint32_t> next(numBlocks, kNoLink);
    const bool bounded = horizon != kWholeStream;
    std::vector<std::uint64_t> nextAt(bounded ? numBlocks : 0);

    for (std::uint64_t k = numWindows; k-- > 0;) {
        const std::uint64_t base = k * window;
        const std::uint64_t end = std::min(base + window, stream.size);
        const std::vector<SuperblockBin> bins =
            prep.runWindow(stream.firstWindowIndex + k, base,
                           stream.data + base, stream.data + end)
                .result.bins;
        for (const SuperblockBin &bin : bins) {
            for (std::size_t j = 0; j < bin.members.size(); ++j) {
                if (bin.nextPaths[j] != kNoFuturePath)
                    continue;
                const BlockId id = bin.members[j];
                LAORAM_ASSERT(id < numBlocks, "block ", id, " outside the ",
                              numBlocks, "-block space");
                const bool inReach =
                    !bounded || nextAt[id] - (base + bin.firstIndex) < horizon;
                out.links.push_back(inReach ? next[id] : kNoLink);
            }
        }
        // This window's first bin per id is now the next bin for every
        // earlier window: walk bins backwards, so the earliest one
        // writes last.
        for (std::size_t i = bins.size(); i-- > 0;) {
            for (BlockId id : bins[i].members) {
                next[id] = static_cast<std::uint32_t>(bins[i].path);
                if (bounded)
                    nextAt[id] = base + bins[i].firstIndex;
            }
        }
        out.offsets[k] = out.links.size();
    }
    return out;
}

std::uint64_t
LookaheadLinks::apply(std::uint64_t windowIndex,
                      PreprocessResult &res) const
{
    LAORAM_ASSERT(windowIndex >= firstWindow
                      && windowIndex - firstWindow + 1 < offsets.size(),
                  "window ", windowIndex, " is not in the link table");
    const std::uint64_t k = windowIndex - firstWindow;
    const std::uint32_t *link = links.data() + offsets[k + 1];
    const std::uint32_t *const end = links.data() + offsets[k];
    std::uint64_t added = 0;
    for (SuperblockBin &bin : res.bins) {
        for (Leaf &path : bin.nextPaths) {
            if (path != kNoFuturePath)
                continue;
            LAORAM_ASSERT(link != end, "window ", windowIndex,
                          " has more unlinked members than its links");
            if (*link != kNoLink) {
                path = *link;
                ++added;
            }
            ++link;
        }
    }
    LAORAM_ASSERT(link == end, "window ", windowIndex,
                  " has fewer unlinked members than its links");
    res.futureLinked += added;
    return added;
}

} // namespace laoram::core
