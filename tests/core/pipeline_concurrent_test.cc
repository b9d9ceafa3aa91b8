/**
 * @file
 * Concurrent two-stage pipeline tests: the threaded pipeline must be
 * an *exact* behavioural twin of the serial paths — same bins, same
 * path choices, same traffic, same payload bytes — with the only
 * difference being wall-clock overlap.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "obs/metrics.hh"
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

/** Full observable engine state: traffic, sim time, posmap, stash. */
void
expectEnginesIdentical(const Laoram &a, const Laoram &b)
{
    const auto &ca = a.meter().counters();
    const auto &cb = b.meter().counters();
    EXPECT_EQ(ca.logicalAccesses, cb.logicalAccesses);
    EXPECT_EQ(ca.pathReads, cb.pathReads);
    EXPECT_EQ(ca.pathWrites, cb.pathWrites);
    EXPECT_EQ(ca.dummyReads, cb.dummyReads);
    EXPECT_EQ(ca.blocksRead, cb.blocksRead);
    EXPECT_EQ(ca.blocksWritten, cb.blocksWritten);
    EXPECT_EQ(ca.bytesRead, cb.bytesRead);
    EXPECT_EQ(ca.bytesWritten, cb.bytesWritten);
    EXPECT_EQ(ca.stashPeak, cb.stashPeak);
    EXPECT_EQ(ca.stashHits, cb.stashHits);
    EXPECT_DOUBLE_EQ(a.meter().clock().nanoseconds(),
                     b.meter().clock().nanoseconds());

    EXPECT_EQ(a.stashSize(), b.stashSize());
    ASSERT_EQ(a.posmapForAudit().size(), b.posmapForAudit().size());
    for (oram::BlockId id = 0; id < a.posmapForAudit().size(); ++id)
        ASSERT_EQ(a.posmapForAudit().get(id), b.posmapForAudit().get(id))
            << "posmap diverges at block " << id;

    EXPECT_EQ(a.binsFormed(), b.binsFormed());
    EXPECT_EQ(a.accessesPreprocessed(), b.accessesPreprocessed());
    EXPECT_EQ(a.futureLinkedMembers(), b.futureLinkedMembers());
}

PipelineConfig
pipelineConfig(PipelineMode mode, std::uint64_t window = 128,
               std::size_t depth = 4, std::size_t prepThreads = 1)
{
    PipelineConfig pc;
    pc.windowAccesses = window;
    pc.mode = mode;
    pc.queueDepth = depth;
    pc.prepThreads = prepThreads;
    return pc;
}

TEST(ConcurrentPipeline, MatchesSimulatedModeExactly)
{
    const auto trace = randomTrace(2000, 256, 7);

    Laoram simEngine(engineConfig());
    BatchPipeline simPipe(simEngine,
                          pipelineConfig(PipelineMode::Simulated));
    const auto simRep = simPipe.run(trace);

    Laoram conEngine(engineConfig());
    BatchPipeline conPipe(conEngine,
                          pipelineConfig(PipelineMode::Concurrent));
    const auto conRep = conPipe.run(trace);

    expectEnginesIdentical(simEngine, conEngine);
    EXPECT_EQ(simRep.windows, conRep.windows);
    EXPECT_DOUBLE_EQ(simRep.simNs, conRep.simNs);
}

TEST(ConcurrentPipeline, MatchesSerialRunTraceByteForByte)
{
    // The pipeline seeds its preprocessor exactly like the engine's
    // internal one, so pipelined serving must reproduce the serial
    // engine.runTrace — including the payload bytes each touch sees.
    const auto trace = randomTrace(1500, 256, 9);
    const std::uint64_t window = 200;

    LaoramConfig serialCfg = engineConfig();
    serialCfg.base.payloadBytes = 32;
    serialCfg.lookaheadWindow = window;
    Laoram serial(serialCfg);
    serial.setTouchCallback(
        [](oram::BlockId id, std::vector<std::uint8_t> &payload) {
            payload[0] = static_cast<std::uint8_t>(id * 3 + 1);
        });
    serial.runTrace(trace);
    serial.setTouchCallback(nullptr);

    LaoramConfig pipedCfg = serialCfg;
    Laoram piped(pipedCfg);
    piped.setTouchCallback(
        [](oram::BlockId id, std::vector<std::uint8_t> &payload) {
            payload[0] = static_cast<std::uint8_t>(id * 3 + 1);
        });
    BatchPipeline pipe(piped,
                       pipelineConfig(PipelineMode::Concurrent, window));
    pipe.run(trace);
    piped.setTouchCallback(nullptr);

    expectEnginesIdentical(serial, piped);

    // Payload readback must be byte-identical. (Both engines keep
    // evolving identically during the readback itself.)
    std::vector<std::uint8_t> bufA, bufB;
    for (oram::BlockId id = 0; id < serialCfg.base.numBlocks; ++id) {
        serial.readBlock(id, bufA);
        piped.readBlock(id, bufB);
        ASSERT_EQ(bufA, bufB) << "payload diverges at block " << id;
    }
}

TEST(ConcurrentPipeline, QueueDepthOneStillCompletes)
{
    // Depth 1 is maximal backpressure: strict lock-step hand-off
    // between the stages. Results must not change.
    const auto trace = randomTrace(1200, 256, 11);

    Laoram deep(engineConfig());
    BatchPipeline deepPipe(
        deep, pipelineConfig(PipelineMode::Concurrent, 64, 8));
    const auto deepRep = deepPipe.run(trace);

    Laoram shallow(engineConfig());
    BatchPipeline shallowPipe(
        shallow, pipelineConfig(PipelineMode::Concurrent, 64, 1));
    const auto shallowRep = shallowPipe.run(trace);

    EXPECT_EQ(deepRep.windows, shallowRep.windows);
    EXPECT_EQ(deepRep.windows, (trace.size() + 63) / 64);
    expectEnginesIdentical(deep, shallow);
}

TEST(ConcurrentPipeline, DeterministicAcrossInterleavings)
{
    // Thread scheduling varies run to run; the ORAM-visible outcome
    // must not. Repeat the same seeded run several times and require
    // identical end states.
    const auto trace = randomTrace(800, 256, 13);

    Laoram reference(engineConfig());
    BatchPipeline refPipe(
        reference, pipelineConfig(PipelineMode::Concurrent, 96, 2));
    refPipe.run(trace);

    for (int round = 0; round < 5; ++round) {
        Laoram engine(engineConfig());
        BatchPipeline pipe(
            engine, pipelineConfig(PipelineMode::Concurrent, 96, 2));
        pipe.run(trace);
        expectEnginesIdentical(reference, engine);
    }
}

TEST(ConcurrentPipeline, MeasuredFieldsPopulated)
{
    Laoram engine(engineConfig());
    BatchPipeline pipe(engine,
                       pipelineConfig(PipelineMode::Concurrent, 512));
    const auto rep = pipe.run(randomTrace(8192, 256, 17));

    EXPECT_GT(rep.wallTotalNs, 0.0);
    EXPECT_GT(rep.wallPrepNs, 0.0);
    EXPECT_GT(rep.wallServeNs, 0.0);
    EXPECT_GE(rep.measuredPrepHiddenFraction, 0.0);
    EXPECT_LE(rep.measuredPrepHiddenFraction, 1.0);
    // Serving did real storage work, so the measured backend I/O
    // stall must be populated and bounded by the serve wall time's
    // fraction invariant.
    EXPECT_GT(rep.wallIoNs, 0.0);
    EXPECT_GE(rep.ioServeFraction, 0.0);
    EXPECT_LE(rep.ioServeFraction, 1.0);
    // No lower bound asserted: the achieved overlap depends on how
    // loaded the machine is (parallel ctest shards this very suite).
    // bench_pipeline_overlap demonstrates >90% hidden on an unloaded
    // host with serving-dominated windows.
}

TEST(SimulatedPipeline, InlineStageOneHidesNothing)
{
    // Simulated mode runs stage 1 inline in the one serving loop: no
    // pool, every measured wall field filled by the same code as
    // Concurrent mode, and the serving thread waits out every
    // window's prep, so none of it is hidden.
    Laoram engine(engineConfig());
    BatchPipeline pipe(engine,
                       pipelineConfig(PipelineMode::Simulated));
    const auto rep = pipe.run(randomTrace(500, 256, 19));
    EXPECT_GT(rep.wallTotalNs, 0.0);
    EXPECT_GT(rep.wallPrepNs, 0.0);
    EXPECT_GT(rep.wallServeNs, 0.0);
    EXPECT_GT(rep.wallIoNs, 0.0);
    EXPECT_EQ(rep.prepThreads, 0u);
    EXPECT_TRUE(rep.prepThreadBusyNs.empty());
    EXPECT_TRUE(rep.prepThreadUtilization.empty());
    EXPECT_TRUE(rep.prepThreadWindows.empty());
    EXPECT_DOUBLE_EQ(rep.wallReorderStallNs, 0.0);
    EXPECT_DOUBLE_EQ(rep.measuredPrepHiddenFraction, 0.0);
    EXPECT_GE(rep.ioServeFraction, 0.0);
    EXPECT_LE(rep.ioServeFraction, 1.0);
}

TEST(ConcurrentPipeline, PreprocessorPoolMatchesSerialByteForByte)
{
    // The tentpole contract: any preprocessor-thread count serves the
    // exact bytes of the serial engine — the per-window path streams
    // plus the reorder stage make scheduling invisible.
    const auto trace = randomTrace(2400, 256, 29);
    const std::uint64_t window = 96;

    LaoramConfig cfg = engineConfig();
    cfg.base.payloadBytes = 32;
    cfg.lookaheadWindow = window;
    const auto touch = [](oram::BlockId id,
                          std::vector<std::uint8_t> &payload) {
        payload[0] = static_cast<std::uint8_t>(id * 5 + 2);
    };

    for (const std::size_t preps : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
        // Fresh reference per pool size: the payload readback below
        // advances engine state, so a shared reference would drift
        // ahead of the next round's pipelined engine.
        Laoram serial(cfg);
        serial.setTouchCallback(touch);
        serial.runTrace(trace);
        serial.setTouchCallback(nullptr);

        Laoram piped(cfg);
        piped.setTouchCallback(touch);
        BatchPipeline pipe(
            piped, pipelineConfig(PipelineMode::Concurrent, window, 3,
                                  preps));
        const auto rep = pipe.run(trace);
        piped.setTouchCallback(nullptr);

        expectEnginesIdentical(serial, piped);
        EXPECT_EQ(rep.prepThreads, preps);

        std::vector<std::uint8_t> bufA, bufB;
        for (oram::BlockId id = 0; id < cfg.base.numBlocks; ++id) {
            serial.readBlock(id, bufA);
            piped.readBlock(id, bufB);
            ASSERT_EQ(bufA, bufB)
                << "P=" << preps << " diverges at block " << id;
        }
    }
}

TEST(ConcurrentPipeline, PreprocessorPoolReportFieldsConsistent)
{
    const auto trace = randomTrace(4096, 256, 31);
    Laoram engine(engineConfig());
    BatchPipeline pipe(
        engine,
        pipelineConfig(PipelineMode::Concurrent, 256, 4, 3));
    const auto rep = pipe.run(trace);

    EXPECT_EQ(rep.prepThreads, 3u);
    ASSERT_EQ(rep.prepThreadBusyNs.size(), 3u);
    ASSERT_EQ(rep.prepThreadUtilization.size(), 3u);
    ASSERT_EQ(rep.prepThreadWindows.size(), 3u);

    std::uint64_t windows = 0;
    double busy = 0.0;
    for (std::size_t t = 0; t < 3; ++t) {
        windows += rep.prepThreadWindows[t];
        busy += rep.prepThreadBusyNs[t];
        EXPECT_GE(rep.prepThreadUtilization[t], 0.0);
        EXPECT_LE(rep.prepThreadUtilization[t], 1.0);
    }
    EXPECT_EQ(windows, rep.windows);
    EXPECT_DOUBLE_EQ(busy, rep.wallPrepNs);

    // Reorder stall is the head-of-line share of the measured serve
    // stalls; it can never exceed total waiting (fill + stalls).
    EXPECT_GE(rep.wallReorderStallNs, 0.0);
    EXPECT_LE(rep.wallReorderStallNs,
              rep.wallFillNs + rep.wallStallNs + 1.0);
}

TEST(ConcurrentPipeline, SinglePrepThreadHasNoReorderStall)
{
    // With one producer windows arrive in order, so no consumer wait
    // can ever be classified as head-of-line.
    Laoram engine(engineConfig());
    BatchPipeline pipe(engine,
                       pipelineConfig(PipelineMode::Concurrent, 128));
    const auto rep = pipe.run(randomTrace(2000, 256, 37));
    EXPECT_EQ(rep.prepThreads, 1u);
    EXPECT_DOUBLE_EQ(rep.wallReorderStallNs, 0.0);
}

TEST(ConcurrentPipeline, PrebuiltSchedulesServeIdentically)
{
    // Serving pre-built window schedules one by one — the pipeline's
    // serving stage used standalone, with the cross-window links stage
    // 1 would apply — must match the one-shot serial runTrace.
    const auto trace = randomTrace(1000, 256, 23);
    const std::uint64_t window = 250;

    LaoramConfig cfg = engineConfig();
    cfg.lookaheadWindow = window;
    Laoram serial(cfg);
    serial.runTrace(trace);

    Laoram staged(cfg);
    Preprocessor prep(
        PreprocessorConfig{cfg.superblockSize,
                           staged.geometry().numLeaves()},
        staged.preprocessorSeed());
    const LookaheadLinks links = LookaheadLinks::build(
        prep, KnownStream{trace.data(), trace.size(), window, 0},
        cfg.lookaheadHorizon, cfg.base.numBlocks);
    std::uint64_t index = 0;
    for (std::uint64_t start = 0; start < trace.size();
         start += window, ++index) {
        const std::uint64_t stop =
            std::min<std::uint64_t>(start + window, trace.size());
        PreprocessResult res = prep.runWindow(index, start,
                                              trace.data() + start,
                                              trace.data() + stop)
                                   .result;
        links.apply(index, res);
        staged.serveWindow(res);
    }

    expectEnginesIdentical(serial, staged);
}

/** The loop's failure shapes, each run in both stage-1 placements. */
struct LoopCase
{
    PipelineMode mode;
    std::size_t prepThreads;
};

const LoopCase kLoopCases[] = {
    {PipelineMode::Simulated, 1},
    {PipelineMode::Concurrent, 1},
    {PipelineMode::Concurrent, 3},
};

std::string
caseName(const LoopCase &c)
{
    return (c.mode == PipelineMode::Simulated ? "Simulated"
                                               : "Concurrent")
           + std::string(" P=") + std::to_string(c.prepThreads);
}

/**
 * A TraceSource that records the serving hooks and, optionally,
 * throws from nextWindow when it hands out window @p failAt.
 */
class RecordingSource final : public ServeSource
{
  public:
    RecordingSource(const std::vector<oram::BlockId> &trace,
                    std::uint64_t window, std::uint64_t failAt)
        : inner(trace, window), failAt(failAt)
    {
    }

    bool
    nextWindow(SourceWindow &out) override
    {
        if (!inner.nextWindow(out))
            return false;
        if (out.windowIndex == failAt)
            throw std::runtime_error("source failed");
        return true;
    }

    void windowServing(std::uint64_t w) override { serving.push_back(w); }
    void windowServed(std::uint64_t w) override { served.push_back(w); }

    std::vector<std::uint64_t> serving; ///< serving thread only
    std::vector<std::uint64_t> served;  ///< serving thread only

  private:
    TraceSource inner;
    const std::uint64_t failAt;
};

std::int64_t
bufferedGauge()
{
    return obs::MetricsRegistry::instance()
        .gauge("pipeline.reorder.buffered")
        .get();
}

/** windowServed fired for exactly 0..j-1, with j <= @p k. */
void
expectServedPrefix(const std::vector<std::uint64_t> &served,
                   std::uint64_t k)
{
    EXPECT_LE(served.size(), k);
    for (std::size_t i = 0; i < served.size(); ++i)
        EXPECT_EQ(served[i], i);
}

TEST(ConcurrentPipeline, SourceFailureRethrowsAfterServedPrefix)
{
    obs::setMetricsEnabled(true);
    const auto trace = randomTrace(2000, 256, 41);
    const std::uint64_t failAt = 5;
    for (const LoopCase &c : kLoopCases) {
        SCOPED_TRACE(caseName(c));
        const std::int64_t gaugeBefore = bufferedGauge();
        Laoram engine(engineConfig());
        BatchPipeline pipe(engine, pipelineConfig(c.mode, 64, 2,
                                                  c.prepThreads));
        RecordingSource source(trace, 64, failAt);
        try {
            pipe.run(source);
            ADD_FAILURE() << "run() returned despite the source failing";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "source failed");
        }
        expectServedPrefix(source.served, failAt);
        EXPECT_EQ(bufferedGauge(), gaugeBefore);
    }
    obs::setMetricsEnabled(false);
}

TEST(ConcurrentPipeline, TouchFailureRethrowsAfterServedPrefix)
{
    obs::setMetricsEnabled(true);
    const auto trace = randomTrace(2000, 256, 43);
    const std::uint64_t window = 64;
    LaoramConfig cfg = engineConfig();
    cfg.base.payloadBytes = 8;
    for (const LoopCase &c : kLoopCases) {
        SCOPED_TRACE(caseName(c));
        const std::int64_t gaugeBefore = bufferedGauge();
        Laoram engine(cfg);
        // Touches run on the serving thread only: a plain counter.
        std::uint64_t touches = 0;
        engine.setTouchCallback(
            [&](oram::BlockId, std::vector<std::uint8_t> &) {
                if (++touches == 7 * window + window / 2)
                    throw std::runtime_error("touch failed");
            });
        BatchPipeline pipe(engine, pipelineConfig(c.mode, window, 2,
                                                  c.prepThreads));
        RecordingSource source(trace, window, ~std::uint64_t{0});
        try {
            pipe.run(source);
            ADD_FAILURE() << "run() returned despite the touch failing";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "touch failed");
        }
        // The failing window is the last one that began serving.
        ASSERT_FALSE(source.serving.empty());
        const std::uint64_t failedWindow = source.serving.back();
        EXPECT_GT(failedWindow, 0u);
        expectServedPrefix(source.served, failedWindow);
        EXPECT_EQ(bufferedGauge(), gaugeBefore);
        engine.setTouchCallback(nullptr);
    }
    obs::setMetricsEnabled(false);
}

} // namespace
} // namespace laoram::core
