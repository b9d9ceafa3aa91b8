/**
 * @file
 * Cross-window look-ahead links (LookaheadLinks): every window's last
 * occurrences get the path of their first bin in a later window
 * (checked against a brute-force search over the formed windows), a
 * finite horizon keeps only next bins that start fewer than H accesses
 * ahead, a resumed stream gets the same links, and
 * on a trace whose windows repeat each other every bin from window 1 on
 * reads exactly one path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "util/rng.hh"

namespace laoram::core {
namespace {

constexpr std::uint64_t kBlocks = 96;
constexpr std::uint64_t kLeaves = 64;

std::vector<BlockId>
hotTrace(std::uint64_t accesses, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<BlockId> trace;
    for (std::uint64_t i = 0; i < accesses; ++i)
        trace.push_back(rng.nextBool(0.5) ? rng.nextBounded(12)
                                          : rng.nextBounded(kBlocks));
    return trace;
}

/** Window w of @p trace as runWindow forms it, no links applied. */
PreprocessResult
formWindow(const Preprocessor &prep, const std::vector<BlockId> &trace,
           std::uint64_t window, std::uint64_t w)
{
    const std::uint64_t begin = w * window;
    const std::uint64_t end =
        std::min<std::uint64_t>(begin + window, trace.size());
    return prep.runWindow(w, begin, trace.data() + begin,
                          trace.data() + end)
        .result;
}

/**
 * Brute force: the path of the first bin after window @p w that holds
 * @p id, if it starts fewer than @p horizon accesses after @p bin.
 */
Leaf
nextBinPath(const std::vector<PreprocessResult> &formed,
            std::uint64_t window, std::uint64_t w, const SuperblockBin &bin,
            BlockId id, std::uint64_t horizon)
{
    const std::uint64_t from = w * window + bin.firstIndex;
    for (std::uint64_t v = w + 1; v < formed.size(); ++v) {
        for (const SuperblockBin &later : formed[v].bins) {
            if (std::find(later.members.begin(), later.members.end(), id)
                == later.members.end())
                continue;
            const std::uint64_t at = v * window + later.firstIndex;
            return horizon == kWholeStream || at - from < horizon
                       ? later.path
                       : kNoFuturePath;
        }
    }
    return kNoFuturePath;
}

TEST(LookaheadLinks, MatchBruteForceNextBinInLaterWindows)
{
    const Preprocessor prep(PreprocessorConfig{4, kLeaves}, 31);
    const std::uint64_t window = 40;
    const auto trace = hotTrace(window * 9 + 17, 5);
    const std::uint64_t windows = (trace.size() + window - 1) / window;
    std::vector<PreprocessResult> formed;
    for (std::uint64_t w = 0; w < windows; ++w)
        formed.push_back(formWindow(prep, trace, window, w));

    for (const std::uint64_t horizon :
         {kWholeStream, std::uint64_t{100}, std::uint64_t{1}}) {
        const std::string what = "horizon " + std::to_string(horizon);
        const LookaheadLinks links = LookaheadLinks::build(
            prep, KnownStream{trace.data(), trace.size(), window, 0},
            horizon, kBlocks);
        std::uint64_t linked = 0;
        for (std::uint64_t w = 0; w < windows; ++w) {
            PreprocessResult got = formed[w];
            const std::uint64_t inWindow = got.futureLinked;
            const std::uint64_t added = links.apply(w, got);
            EXPECT_EQ(got.futureLinked, inWindow + added) << what;
            linked += added;
            for (std::size_t b = 0; b < got.bins.size(); ++b) {
                const SuperblockBin &bin = formed[w].bins[b];
                for (std::size_t j = 0; j < bin.members.size(); ++j) {
                    if (bin.nextPaths[j] != kNoFuturePath) {
                        // In-window links are never touched.
                        EXPECT_EQ(got.bins[b].nextPaths[j],
                                  bin.nextPaths[j])
                            << what;
                        continue;
                    }
                    const Leaf want = nextBinPath(
                        formed, window, w, bin, bin.members[j], horizon);
                    EXPECT_EQ(got.bins[b].nextPaths[j], want)
                        << what << " window " << w << " bin " << b
                        << " member " << bin.members[j];
                }
            }
        }
        if (horizon == kWholeStream) {
            EXPECT_GT(linked, 0u);
        } else if (horizon == 1) {
            EXPECT_EQ(linked, 0u);
        }
    }
}

TEST(LookaheadLinks, ResumedStreamGetsTheSameLinks)
{
    // Links only look forward: a table built over the suffix a resumed
    // run holds (numbered from the window it resumes at) fills every
    // remaining window exactly as the whole stream's table does.
    const Preprocessor prep(PreprocessorConfig{4, kLeaves}, 77);
    const std::uint64_t window = 24;
    const auto trace = hotTrace(window * 40 + 5, 8);
    const std::uint64_t windows = (trace.size() + window - 1) / window;
    const LookaheadLinks whole = LookaheadLinks::build(
        prep, KnownStream{trace.data(), trace.size(), window, 0},
        kWholeStream, kBlocks);
    for (const std::uint64_t resume : {0u, 1u, 17u, 40u}) {
        const std::string what = "resume " + std::to_string(resume);
        const std::uint64_t skip = resume * window;
        const LookaheadLinks suffix = LookaheadLinks::build(
            prep,
            KnownStream{trace.data() + skip, trace.size() - skip, window,
                        resume},
            kWholeStream, kBlocks);
        for (std::uint64_t w = resume; w < windows; ++w) {
            PreprocessResult a = formWindow(prep, trace, window, w);
            PreprocessResult b = a;
            whole.apply(w, a);
            suffix.apply(w, b);
            ASSERT_EQ(a.futureLinked, b.futureLinked)
                << what << " window " << w;
            for (std::size_t i = 0; i < a.bins.size(); ++i)
                ASSERT_EQ(a.bins[i].nextPaths, b.bins[i].nextPaths)
                    << what << " window " << w << " bin " << i;
        }
    }
}

TEST(LookaheadLinks, RepeatedWindowsReadOnePathPerBin)
{
    // Every window repeats the previous one's 16 ids in the same order,
    // so bins keep their shape and no id recurs inside a window: with
    // cross-window links every member waits on the path of the same
    // bin one window later, and every bin from window 1 on reads
    // exactly one path. Links inside windows only (horizon 0), or a
    // horizon that ends just short of the next window's bin, leave the
    // members on uniform leaves.
    constexpr std::uint64_t kWindow = 16;
    constexpr std::uint64_t kWindows = 8;
    constexpr std::uint64_t kS = 4;
    std::vector<BlockId> trace;
    for (std::uint64_t w = 0; w < kWindows; ++w)
        for (BlockId id = 0; id < kWindow; ++id)
            trace.push_back((id * 7) % kWindow + 3);

    for (const std::uint64_t horizon :
         {kWholeStream, kWindow + 1, kWindow, std::uint64_t{0}}) {
        const std::string what = "horizon " + std::to_string(horizon);
        LaoramConfig cfg;
        cfg.base.numBlocks = 64;
        cfg.base.seed = 3;
        cfg.superblockSize = kS;
        cfg.lookaheadWindow = kWindow;
        cfg.lookaheadHorizon = horizon;
        Laoram engine(cfg);
        std::vector<std::uint64_t> reads{0};
        PipelineConfig pc;
        pc.mode = PipelineMode::Simulated;
        pc.windowAccesses = kWindow;
        pc.windowBoundaryHook = [&](std::uint64_t) {
            reads.push_back(engine.meter().counters().pathReads);
        };
        const PipelineReport rep = BatchPipeline(engine, pc).run(trace);
        ASSERT_EQ(reads.size(), kWindows + 1) << what;

        const bool crossLinks = horizon > kWindow;
        EXPECT_EQ(rep.wallLinkPassNs > 0.0, horizon != 0) << what;
        EXPECT_EQ(engine.futureLinkedMembers(),
                  crossLinks ? kWindow * (kWindows - 1) : 0u)
            << what;
        std::uint64_t later = 0;
        for (std::uint64_t w = 1; w < kWindows; ++w) {
            const std::uint64_t windowReads = reads[w + 1] - reads[w];
            later += windowReads;
            if (crossLinks) {
                EXPECT_EQ(windowReads, kWindow / kS)
                    << what << " window " << w;
            }
        }
        if (!crossLinks) {
            EXPECT_GT(later, (kWindows - 1) * kWindow / kS) << what;
        }
    }
}

} // namespace
} // namespace laoram::core
