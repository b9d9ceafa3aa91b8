/**
 * @file
 * Span tracer tests: ring overflow counts drops without blocking, the
 * emitted JSON is structurally valid Chrome-trace (checked with the
 * in-tree validator), and a traced concurrent run shows spans from
 * more than one thread.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "core/pipeline.hh"
#include "core/serve_source.hh"
#include "obs/trace.hh"
#include "util/rng.hh"

namespace laoram::obs {
namespace {

class ObsTraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Tracer::instance().disable();
        Tracer::instance().reset();
    }

    void
    TearDown() override
    {
        Tracer::instance().disable();
        Tracer::instance().reset();
    }
};

std::string
dumpTrace()
{
    std::ostringstream os;
    Tracer::instance().writeTo(os);
    return os.str();
}

TEST_F(ObsTraceTest, DisabledRecordsNothing)
{
    EXPECT_FALSE(tracingEnabled());
    traceRecord("never", 0, 10);
    {
        TraceSpan span("never-span");
    }
    EXPECT_EQ(Tracer::instance().recorded(), 0u);
    EXPECT_EQ(Tracer::instance().threadsSeen(), 0u);
}

TEST_F(ObsTraceTest, RecordsSpansAndThreadNames)
{
    Tracer &tracer = Tracer::instance();
    tracer.enable(64);
    traceSetThreadName("test-main");
    {
        TraceSpan span("unit-span", 7);
    }
    traceRecordEndingNow("back-dated", 1000, 3);
    tracer.disable();

    EXPECT_EQ(tracer.recorded(), 2u);
    EXPECT_EQ(tracer.dropped(), 0u);
    EXPECT_EQ(tracer.threadsSeen(), 1u);

    const std::string json = dumpTrace();
    EXPECT_NE(json.find("\"unit-span\""), std::string::npos);
    EXPECT_NE(json.find("\"back-dated\""), std::string::npos);
    EXPECT_NE(json.find("\"test-main\""), std::string::npos);

    std::string error;
    std::uint64_t events = 0;
    ASSERT_TRUE(validateChromeTrace(json, &error, &events)) << error;
    EXPECT_EQ(events, 2u);
}

TEST_F(ObsTraceTest, FirstThreadNameWins)
{
    Tracer &tracer = Tracer::instance();
    tracer.enable(16);
    traceSetThreadName("outer");
    traceSetThreadName("inner");
    traceRecord("x", 0, 1);
    tracer.disable();

    const std::string json = dumpTrace();
    EXPECT_NE(json.find("\"outer\""), std::string::npos);
    EXPECT_EQ(json.find("\"inner\""), std::string::npos);
}

TEST_F(ObsTraceTest, RingOverflowCountsDropsWithoutBlocking)
{
    Tracer &tracer = Tracer::instance();
    constexpr std::size_t kCapacity = 32;
    constexpr std::size_t kRecorded = 100;
    tracer.enable(kCapacity);
    for (std::size_t i = 0; i < kRecorded; ++i)
        traceRecord("spin", static_cast<std::int64_t>(i), 1, i);
    tracer.disable();

    EXPECT_EQ(tracer.recorded(), kCapacity);
    EXPECT_EQ(tracer.dropped(), kRecorded - kCapacity);

    // The ring keeps the newest events and the dump stays valid JSON
    // with the drop count reported.
    const std::string json = dumpTrace();
    std::string error;
    std::uint64_t events = 0;
    ASSERT_TRUE(validateChromeTrace(json, &error, &events)) << error;
    EXPECT_EQ(events, kCapacity);
    EXPECT_NE(json.find("\"dropped\""), std::string::npos);
}

TEST_F(ObsTraceTest, ResetForgetsRingsAndDrops)
{
    Tracer &tracer = Tracer::instance();
    tracer.enable(4);
    for (int i = 0; i < 10; ++i)
        traceRecord("x", i, 1);
    tracer.disable();
    EXPECT_GT(tracer.recorded(), 0u);
    EXPECT_GT(tracer.dropped(), 0u);

    tracer.reset();
    EXPECT_EQ(tracer.recorded(), 0u);
    EXPECT_EQ(tracer.dropped(), 0u);
    EXPECT_EQ(tracer.threadsSeen(), 0u);
}

TEST_F(ObsTraceTest, MultipleThreadsGetDistinctTids)
{
    Tracer &tracer = Tracer::instance();
    tracer.enable(256);
    std::thread other([] {
        traceSetThreadName("worker");
        TraceSpan span("other-thread-span");
    });
    other.join();
    {
        TraceSpan span("main-thread-span");
    }
    tracer.disable();

    std::string error;
    std::uint64_t events = 0;
    std::size_t threads = 0;
    ASSERT_TRUE(
        validateChromeTrace(dumpTrace(), &error, &events, &threads))
        << error;
    EXPECT_EQ(events, 2u);
    EXPECT_EQ(threads, 2u);
}

/**
 * Schema smoke: a traced concurrent pipeline run (prep workers + the
 * serving thread) emits parseable Chrome-trace JSON with spans from
 * at least two threads — the load-in-Perfetto acceptance check,
 * automated.
 */
TEST_F(ObsTraceTest, TracedPipelineRunEmitsValidMultiThreadTrace)
{
    Tracer &tracer = Tracer::instance();
    tracer.enable(1 << 12);

    {
        core::LaoramConfig cfg;
        cfg.base.numBlocks = 256;
        cfg.base.blockBytes = 64;
        cfg.base.seed = 33;
        cfg.superblockSize = 4;
        cfg.lookaheadWindow = 64;
        core::Laoram engine(cfg);

        Rng rng(99);
        std::vector<oram::BlockId> trace;
        for (int i = 0; i < 512; ++i)
            trace.push_back(rng.nextBounded(cfg.base.numBlocks));

        core::PipelineConfig pc;
        pc.windowAccesses = 64;
        pc.prepThreads = 2;
        pc.mode = core::PipelineMode::Concurrent;
        core::BatchPipeline pipe(engine, pc);
        core::TraceSource source(trace, 64);
        pipe.run(source);
    }
    tracer.disable();

    const std::string json = dumpTrace();
    std::string error;
    std::uint64_t events = 0;
    std::size_t threads = 0;
    ASSERT_TRUE(validateChromeTrace(json, &error, &events, &threads))
        << error;
    EXPECT_GT(events, 0u);
    EXPECT_GE(threads, 2u);
    EXPECT_NE(json.find("\"serve-window\""), std::string::npos);
    EXPECT_NE(json.find("\"prep-window\""), std::string::npos);
}

} // namespace
} // namespace laoram::obs
