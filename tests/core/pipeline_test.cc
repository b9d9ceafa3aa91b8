/**
 * @file
 * Two-stage pipeline tests (paper §VIII-A: preprocessing off the
 * critical path).
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/pipeline.hh"
#include "util/rng.hh"

namespace laoram::core {
namespace {

LaoramConfig
engineConfig()
{
    LaoramConfig cfg;
    cfg.base.numBlocks = 256;
    cfg.base.blockBytes = 64;
    cfg.base.seed = 21;
    cfg.superblockSize = 4;
    return cfg;
}

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

TEST(BatchPipeline, EmptyTrace)
{
    Laoram engine(engineConfig());
    BatchPipeline pipe(engine, PipelineConfig{});
    const auto rep = pipe.run({});
    EXPECT_EQ(rep.windows, 0u);
    EXPECT_DOUBLE_EQ(rep.simNs, 0.0);
}

TEST(BatchPipeline, WindowCount)
{
    Laoram engine(engineConfig());
    PipelineConfig pc;
    pc.windowAccesses = 100;
    BatchPipeline pipe(engine, pc);
    const auto rep = pipe.run(randomTrace(950, 256, 1));
    EXPECT_EQ(rep.windows, 10u); // 9 full + 1 partial
}

TEST(BatchPipeline, AccessesStillServedCorrectly)
{
    Laoram engine(engineConfig());
    PipelineConfig pc;
    pc.windowAccesses = 64;
    BatchPipeline pipe(engine, pc);
    const auto trace = randomTrace(1000, 256, 4);
    pipe.run(trace);
    EXPECT_EQ(engine.meter().counters().logicalAccesses, trace.size());
}

TEST(BatchPipeline, ReportTotalsConsistent)
{
    // simNs is the engine's simulated-clock delta over the run, so a
    // second run reports exactly what the clock moved by.
    Laoram engine(engineConfig());
    PipelineConfig pc;
    pc.windowAccesses = 128;
    BatchPipeline pipe(engine, pc);
    pipe.run(randomTrace(500, 256, 5));
    const double before = engine.meter().clock().nanoseconds();
    const auto rep = pipe.run(randomTrace(500, 256, 6));
    EXPECT_GT(rep.simNs, 0.0);
    EXPECT_DOUBLE_EQ(rep.simNs,
                     engine.meter().clock().nanoseconds() - before);
    EXPECT_EQ(rep.windows, 4u);
}

} // namespace
} // namespace laoram::core
