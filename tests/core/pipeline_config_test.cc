/**
 * @file
 * PipelineConfig construction and validation: the validate() pass
 * that rejects incoherent knob combinations with a clear fatal error
 * instead of silent fallback.
 */

#include <gtest/gtest.h>

#include "core/pipeline.hh"

namespace laoram::core {
namespace {

TEST(PipelineConfig, AssignedFieldsValidate)
{
    PipelineConfig pc;
    pc.windowAccesses = 256;
    pc.queueDepth = 8;
    pc.prepThreads = 3;
    pc.prepLoadNsPerAccess = 5.0;
    pc.mode = PipelineMode::Concurrent;
    pc.validate(); // must not exit
    EXPECT_EQ(pc.windowAccesses, 256u);
    EXPECT_EQ(pc.queueDepth, 8u);
    EXPECT_EQ(pc.prepThreads, 3u);
    EXPECT_DOUBLE_EQ(pc.prepLoadNsPerAccess, 5.0);
    EXPECT_EQ(pc.mode, PipelineMode::Concurrent);
}

TEST(PipelineConfig, DefaultsValidate)
{
    PipelineConfig{}.validate(); // must not exit
    PipelineConfig simulated;
    simulated.mode = PipelineMode::Simulated;
    simulated.validate();
    PipelineConfig deepPool;
    deepPool.prepThreads = 8;
    deepPool.queueDepth = 1;
    deepPool.validate();
}

TEST(PipelineConfigDeathTest, RejectsZeroWindow)
{
    PipelineConfig pc;
    pc.windowAccesses = 0;
    EXPECT_EXIT(pc.validate(), ::testing::ExitedWithCode(1),
                "windowAccesses");
}

TEST(PipelineConfigDeathTest, RejectsZeroQueueDepth)
{
    PipelineConfig pc;
    pc.queueDepth = 0;
    EXPECT_EXIT(pc.validate(), ::testing::ExitedWithCode(1),
                "queueDepth");
}

TEST(PipelineConfigDeathTest, RejectsZeroPrepThreads)
{
    PipelineConfig pc;
    pc.prepThreads = 0;
    EXPECT_EXIT(pc.validate(), ::testing::ExitedWithCode(1),
                "prepThreads");
}

TEST(PipelineConfigDeathTest, RejectsNegativeCosts)
{
    PipelineConfig pc;
    pc.prepLoadNsPerAccess = -1.0;
    EXPECT_EXIT(pc.validate(), ::testing::ExitedWithCode(1),
                "prepLoadNsPerAccess");
}

TEST(PipelineConfigDeathTest, RejectsSimulatedWithPrepPool)
{
    // Simulated mode spawns no threads; a pool request would be
    // silently ignored — exactly the fallback validate() forbids.
    PipelineConfig pc;
    pc.mode = PipelineMode::Simulated;
    pc.prepThreads = 4;
    EXPECT_EXIT(pc.validate(), ::testing::ExitedWithCode(1),
                "Simulated");
}

TEST(PipelineConfigDeathTest, RejectsSimulatedWithPrepLoad)
{
    PipelineConfig pc;
    pc.mode = PipelineMode::Simulated;
    pc.prepLoadNsPerAccess = 10.0;
    EXPECT_EXIT(pc.validate(), ::testing::ExitedWithCode(1),
                "prepLoadNsPerAccess");
}

TEST(PipelineConfigDeathTest, BatchPipelineValidatesOnConstruction)
{
    LaoramConfig cfg;
    cfg.base.numBlocks = 64;
    cfg.base.seed = 3;
    Laoram engine(cfg);
    PipelineConfig pc;
    pc.mode = PipelineMode::Simulated;
    pc.prepThreads = 2;
    EXPECT_EXIT(
        {
            BatchPipeline pipe(engine, pc);
            (void)pipe;
        },
        ::testing::ExitedWithCode(1), "Simulated");
}

} // namespace
} // namespace laoram::core
