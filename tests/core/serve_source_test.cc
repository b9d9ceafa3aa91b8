/**
 * @file
 * ServeSource tests: TraceSource window slicing, the contiguity
 * contract under concurrent claiming, and the unified
 * BatchPipeline::run(ServeSource&) path matching the trace adapter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/pipeline.hh"
#include "core/serve_source.hh"
#include "util/rng.hh"

namespace laoram::core {
namespace {

std::vector<oram::BlockId>
randomTrace(std::uint64_t n, std::uint64_t blocks, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<oram::BlockId> t;
    t.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
        t.push_back(rng.nextBounded(blocks));
    return t;
}

TEST(TraceSource, SlicesTraceIntoNumberedWindows)
{
    const auto trace = randomTrace(1000, 64, 5);
    TraceSource src(trace, 300);
    EXPECT_EQ(src.numWindows(), 4u);

    SourceWindow sw;
    std::uint64_t offset = 0;
    for (std::uint64_t w = 0; w < 4; ++w) {
        ASSERT_TRUE(src.nextWindow(sw));
        EXPECT_EQ(sw.windowIndex, w);
        EXPECT_EQ(sw.traceOffset, offset);
        const std::uint64_t expect = w < 3 ? 300 : 100;
        ASSERT_EQ(sw.accesses.size(), expect);
        for (std::size_t i = 0; i < sw.accesses.size(); ++i)
            EXPECT_EQ(sw.accesses[i], trace[offset + i]);
        offset += expect;
    }
    EXPECT_FALSE(src.nextWindow(sw));
    EXPECT_FALSE(src.nextWindow(sw)); // exhaustion is permanent
}

TEST(TraceSource, ZeroWindowMeansWholeTrace)
{
    const auto trace = randomTrace(123, 16, 7);
    TraceSource src(trace, 0);
    EXPECT_EQ(src.numWindows(), 1u);
    SourceWindow sw;
    ASSERT_TRUE(src.nextWindow(sw));
    EXPECT_EQ(sw.windowIndex, 0u);
    EXPECT_EQ(sw.accesses.size(), trace.size());
    EXPECT_FALSE(src.nextWindow(sw));
}

TEST(TraceSource, EmptyTraceEmitsNothing)
{
    const std::vector<oram::BlockId> empty;
    TraceSource src(empty, 64);
    EXPECT_EQ(src.numWindows(), 0u);
    SourceWindow sw;
    EXPECT_FALSE(src.nextWindow(sw));
}

TEST(TraceSource, ConcurrentClaimingStaysContiguousAndComplete)
{
    // The ServeSource contract the reorder stage rests on: under any
    // number of claiming threads, every window index in [0, N) is
    // handed out exactly once, with its data.
    const auto trace = randomTrace(4096, 64, 9);
    TraceSource src(trace, 64);
    const std::uint64_t numWindows = src.numWindows();

    std::mutex mu;
    std::set<std::uint64_t> seen;
    std::vector<std::thread> pool;
    for (int t = 0; t < 4; ++t) {
        pool.emplace_back([&] {
            SourceWindow sw;
            while (src.nextWindow(sw)) {
                ASSERT_FALSE(sw.accesses.empty());
                std::lock_guard<std::mutex> lock(mu);
                const bool fresh = seen.insert(sw.windowIndex).second;
                ASSERT_TRUE(fresh)
                    << "window " << sw.windowIndex << " claimed twice";
            }
        });
    }
    for (std::thread &t : pool)
        t.join();

    ASSERT_EQ(seen.size(), numWindows);
    EXPECT_EQ(*seen.begin(), 0u);
    EXPECT_EQ(*seen.rbegin(), numWindows - 1);
}

TEST(ServeSource, UnifiedRunMatchesTraceAdapter)
{
    // run(ServeSource&) and the legacy run(trace) adapter are the
    // same code path; prove it end to end on engine state.
    const auto trace = randomTrace(1500, 128, 11);

    LaoramConfig cfg;
    cfg.base.numBlocks = 128;
    cfg.base.seed = 31;
    cfg.superblockSize = 4;

    PipelineConfig pc;
    pc.windowAccesses = 200;

    Laoram viaTrace(cfg);
    BatchPipeline(viaTrace, pc).run(trace);

    Laoram viaSource(cfg);
    TraceSource src(trace, pc.windowAccesses);
    const PipelineReport rep = BatchPipeline(viaSource, pc).run(src);

    EXPECT_EQ(rep.windows, (trace.size() + 199) / 200);
    EXPECT_EQ(viaTrace.stashSize(), viaSource.stashSize());
    EXPECT_EQ(viaTrace.binsFormed(), viaSource.binsFormed());
    ASSERT_EQ(viaTrace.posmapForAudit().size(),
              viaSource.posmapForAudit().size());
    for (oram::BlockId id = 0; id < viaTrace.posmapForAudit().size();
         ++id)
        ASSERT_EQ(viaTrace.posmapForAudit().get(id),
                  viaSource.posmapForAudit().get(id));

    // Trace replay carries no request timestamps: latency stays zero.
    EXPECT_EQ(rep.latency.requests, 0u);
    EXPECT_DOUBLE_EQ(rep.latency.p99Ns, 0.0);
}

} // namespace
} // namespace laoram::core
