/**
 * @file
 * PipelineConfig construction and validation: the named setter-style
 * builders and the validate() pass that rejects incoherent knob
 * combinations with a clear fatal error instead of silent fallback.
 */

#include <gtest/gtest.h>

#include "core/pipeline.hh"

namespace laoram::core {
namespace {

TEST(PipelineConfig, SetterChainingBuildsExpectedConfig)
{
    const PipelineConfig pc = PipelineConfig{}
                                  .withWindowAccesses(256)
                                  .withQueueDepth(8)
                                  .withPrepThreads(3)
                                  .withPrepLoad(5.0)
                                  .withMode(PipelineMode::Concurrent);
    EXPECT_EQ(pc.windowAccesses, 256u);
    EXPECT_EQ(pc.queueDepth, 8u);
    EXPECT_EQ(pc.prepThreads, 3u);
    EXPECT_DOUBLE_EQ(pc.prepLoadNsPerAccess, 5.0);
    EXPECT_EQ(pc.mode, PipelineMode::Concurrent);
}

TEST(PipelineConfig, DefaultsValidate)
{
    PipelineConfig{}.validate(); // must not exit
    PipelineConfig{}.withMode(PipelineMode::Simulated).validate();
    PipelineConfig{}.withPrepThreads(8).withQueueDepth(1).validate();
}

TEST(PipelineConfigDeathTest, RejectsZeroWindow)
{
    EXPECT_EXIT(PipelineConfig{}.withWindowAccesses(0).validate(),
                ::testing::ExitedWithCode(1), "windowAccesses");
}

TEST(PipelineConfigDeathTest, RejectsZeroQueueDepth)
{
    EXPECT_EXIT(PipelineConfig{}.withQueueDepth(0).validate(),
                ::testing::ExitedWithCode(1), "queueDepth");
}

TEST(PipelineConfigDeathTest, RejectsZeroPrepThreads)
{
    EXPECT_EXIT(PipelineConfig{}.withPrepThreads(0).validate(),
                ::testing::ExitedWithCode(1), "prepThreads");
}

TEST(PipelineConfigDeathTest, RejectsNegativeCosts)
{
    EXPECT_EXIT(PipelineConfig{}.withPrepLoad(-1.0).validate(),
                ::testing::ExitedWithCode(1), "prepLoadNsPerAccess");
}

TEST(PipelineConfigDeathTest, RejectsSimulatedWithPrepPool)
{
    // Simulated mode spawns no threads; a pool request would be
    // silently ignored — exactly the fallback validate() forbids.
    EXPECT_EXIT(PipelineConfig{}
                    .withMode(PipelineMode::Simulated)
                    .withPrepThreads(4)
                    .validate(),
                ::testing::ExitedWithCode(1), "Simulated");
}

TEST(PipelineConfigDeathTest, RejectsSimulatedWithPrepLoad)
{
    EXPECT_EXIT(PipelineConfig{}
                    .withMode(PipelineMode::Simulated)
                    .withPrepLoad(10.0)
                    .validate(),
                ::testing::ExitedWithCode(1), "prepLoadNsPerAccess");
}

TEST(PipelineConfigDeathTest, BatchPipelineValidatesOnConstruction)
{
    LaoramConfig cfg;
    cfg.base.numBlocks = 64;
    cfg.base.seed = 3;
    Laoram engine(cfg);
    EXPECT_EXIT(
        {
            BatchPipeline pipe(engine, PipelineConfig{}
                                           .withMode(
                                               PipelineMode::Simulated)
                                           .withPrepThreads(2));
            (void)pipe;
        },
        ::testing::ExitedWithCode(1), "Simulated");
}

} // namespace
} // namespace laoram::core
