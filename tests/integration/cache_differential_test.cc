/**
 * @file
 * Hot-cache obliviousness differential suite.
 *
 * The cache tier's non-negotiable contract: attaching a trusted-client
 * hot-row cache changes WHICH BYTES the client trusts, never WHAT THE
 * SERVER SEES. Every scenario here runs the same workload with the
 * cache off (reference) and on, recording the server-visible physical
 * access sequence through ServerStorage's adversary's-eye AccessSink,
 * and requires:
 *
 *   - the (slot, isWrite) sequence is identical element for element —
 *     the cache consumes no engine randomness and every scheduled
 *     access still executes as a dummy on hits;
 *   - the full observable client state (payloads, position map, stash,
 *     counters, simulated clock) is identical — a hit serves the same
 *     bytes the ORAM path would have.
 *
 * Covered legs: standalone serial + pipelined (plain and encrypted),
 * sharded trace serving, and the online frontend with a
 * pre-submitted session stream (admission fast path + write-back
 * coalescing active, batch results compared byte for byte).
 *
 * Seed control: LAORAM_DIFF_SEED / LAORAM_DIFF_ITERS as in
 * differential_test.cc.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hh"
#include "core/sharded_laoram.hh"
#include "serve/frontend.hh"
#include "util/rng.hh"

#include "engine_snapshot.hh"

namespace laoram::core {
namespace {

/** One recorded physical access, exactly what a bus probe sees. */
using ServerTrace = std::vector<std::pair<std::uint64_t, bool>>;

void
recordInto(Laoram &engine, ServerTrace *trace)
{
    engine.storageForTest().setAccessSink(
        [trace](std::uint64_t slot, bool isWrite) {
            trace->emplace_back(slot, isWrite);
        });
}

void
expectSameTrace(const ServerTrace &ref, const ServerTrace &got,
                const std::string &what)
{
    ASSERT_EQ(ref.size(), got.size())
        << what << ": server saw a different number of accesses";
    for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(ref[i], got[i])
            << what << ": server trace diverges at access " << i
            << " (slot " << ref[i].first << " w=" << ref[i].second
            << " vs slot " << got[i].first << " w=" << got[i].second
            << ")";
    }
}

LaoramConfig
baseConfig(bool encrypt, std::uint64_t seed)
{
    LaoramConfig cfg;
    cfg.base.numBlocks = 256;
    cfg.base.blockBytes = 64;
    cfg.base.payloadBytes = 16;
    cfg.base.encrypt = encrypt;
    cfg.base.seed = seed;
    cfg.superblockSize = 4;
    cfg.lookaheadWindow = 64;
    return cfg;
}

std::vector<oram::BlockId>
hotTrace(std::uint64_t numBlocks, std::uint64_t length, Rng &rng)
{
    // Zipf-ish: half the stream on a hot 1/8th so the cache actually
    // hits, the rest uniform so it also evicts.
    std::vector<oram::BlockId> trace;
    trace.reserve(length);
    const std::uint64_t hot = 1 + numBlocks / 8;
    for (std::uint64_t i = 0; i < length; ++i)
        trace.push_back(rng.nextBool(0.5) ? rng.nextBounded(hot)
                                          : rng.nextBounded(numBlocks));
    return trace;
}

Laoram::TouchFn
accumulatingTouch()
{
    return [](oram::BlockId id, std::vector<std::uint8_t> &payload) {
        payload[0] = static_cast<std::uint8_t>(payload[0] + id + 1);
    };
}

TEST(CacheDifferential, StandaloneTraceAndStateIdenticalCacheOnOff)
{
    Rng rng(diffSeed() ^ 0xCACEULL);
    for (const bool encrypt : {false, true}) {
        const LaoramConfig cfg = baseConfig(encrypt, rng.next());
        const auto trace =
            hotTrace(cfg.base.numBlocks, 1200, rng);

        // Reference: cache off, serial.
        ServerTrace refTrace;
        Laoram reference(cfg);
        recordInto(reference, &refTrace);
        reference.setTouchCallback(accumulatingTouch());
        reference.runTrace(trace);
        reference.setTouchCallback(nullptr);
        reference.storageForTest().setAccessSink(nullptr);
        const EngineSnapshot refSnap = snapshotOf(reference);

        const std::string what = encrypt ? "encrypted" : "plain";
        SCOPED_TRACE(what);

        // Cache sized to a fraction of the block space: hits on the
        // hot set, evictions on the uniform tail.
        LaoramConfig ccfg = cfg;
        ccfg.cache.capacityBytes =
            (cfg.base.numBlocks / 4) * cfg.base.payloadBytes;

        // Serial with cache.
        ServerTrace serialTrace;
        Laoram cached(ccfg);
        recordInto(cached, &serialTrace);
        cached.setTouchCallback(accumulatingTouch());
        cached.runTrace(trace);
        cached.setTouchCallback(nullptr);
        cached.storageForTest().setAccessSink(nullptr);
        EXPECT_GT(cached.hotCache()->stats().hits, 0u) << what;
        EXPECT_GT(cached.hotCache()->stats().evictions, 0u) << what;
        expectSameTrace(refTrace, serialTrace, what + " serial");
        expectMatchesSnapshot(refSnap, cached, what + " serial");

        // Concurrent pipeline with cache.
        ServerTrace pipedTrace;
        Laoram piped(ccfg);
        recordInto(piped, &pipedTrace);
        piped.setTouchCallback(accumulatingTouch());
        PipelineConfig pc;
        pc.windowAccesses = cfg.lookaheadWindow;
        pc.prepThreads = 2;
        pc.mode = PipelineMode::Concurrent;
        BatchPipeline pipe(piped, pc);
        pipe.run(trace);
        piped.setTouchCallback(nullptr);
        piped.storageForTest().setAccessSink(nullptr);
        expectSameTrace(refTrace, pipedTrace, what + " piped");
        expectMatchesSnapshot(refSnap, piped, what + " piped");
    }
}

TEST(CacheDifferential, ShardedTraceAndStateIdenticalCacheOnOff)
{
    Rng rng(diffSeed() ^ 0x5CACEULL);
    const LaoramConfig ecfg = baseConfig(false, rng.next());
    const auto trace = hotTrace(ecfg.base.numBlocks, 1500, rng);

    ShardedLaoramConfig scfg;
    scfg.engine = ecfg;
    scfg.numShards = 2;
    scfg.pipeline.windowAccesses = ecfg.lookaheadWindow;
    scfg.pipeline.prepThreads = 2;

    const auto runSharded = [&](const ShardedLaoramConfig &cfg,
                                std::vector<ServerTrace> *traces) {
        auto engine = std::make_unique<ShardedLaoram>(cfg);
        traces->resize(engine->numShards());
        for (std::uint32_t s = 0; s < engine->numShards(); ++s)
            recordInto(engine->shard(s), &(*traces)[s]);
        engine->setTouchCallback(
            [](oram::BlockId global,
               std::vector<std::uint8_t> &payload) {
                payload[0] =
                    static_cast<std::uint8_t>(payload[0] + global + 1);
            });
        engine->runTrace(trace);
        engine->setTouchCallback(nullptr);
        for (std::uint32_t s = 0; s < engine->numShards(); ++s)
            engine->shard(s).storageForTest().setAccessSink(nullptr);
        return engine;
    };

    std::vector<ServerTrace> refTraces;
    const auto reference = runSharded(scfg, &refTraces);

    ShardedLaoramConfig ccfg = scfg;
    ccfg.engine.cache.capacityBytes =
        (ecfg.base.numBlocks / 4) * ecfg.base.payloadBytes;
    std::vector<ServerTrace> cachedTraces;
    const auto cached = runSharded(ccfg, &cachedTraces);

    std::uint64_t totalHits = 0;
    for (std::uint32_t s = 0; s < reference->numShards(); ++s) {
        const std::string what = "shard " + std::to_string(s);
        totalHits += cached->shard(s).hotCache()->stats().hits;
        expectSameTrace(refTraces[s], cachedTraces[s], what);
        expectMatchesSnapshot(snapshotOf(reference->shard(s)),
                              cached->shard(s), what);
    }
    EXPECT_GT(totalHits, 0u);
}

TEST(CacheDifferential, FrontendFastPathKeepsTraceAndResultsIdentical)
{
    Rng rng(diffSeed() ^ 0xF5CACEULL);
    constexpr std::uint64_t kBlocks = 256;
    constexpr std::uint64_t kPayload = 16;
    constexpr std::uint64_t kBatches = 48;
    constexpr std::uint64_t kOpsPerBatch = 16;

    // One pre-generated session stream (update-heavy on a hot set so
    // admission hits and write-back coalescing both trigger).
    struct GenOp
    {
        bool update;
        oram::BlockId id;
        std::uint8_t fill;
    };
    std::vector<std::vector<GenOp>> script(kBatches);
    for (auto &batch : script) {
        batch.reserve(kOpsPerBatch);
        for (std::uint64_t i = 0; i < kOpsPerBatch; ++i) {
            GenOp op;
            op.id = rng.nextBool(0.6)
                        ? rng.nextBounded(1 + kBlocks / 8)
                        : rng.nextBounded(kBlocks);
            op.update = rng.nextBool(0.5);
            op.fill = static_cast<std::uint8_t>(rng.nextBounded(256));
            batch.push_back(op);
        }
    }

    const auto runFrontend = [&](std::uint64_t cacheBytes,
                                 std::vector<ServerTrace> *traces,
                                 std::vector<serve::BatchResult>
                                     *results) {
        ShardedLaoramConfig cfg;
        cfg.engine.base.numBlocks = kBlocks;
        cfg.engine.base.payloadBytes = kPayload;
        cfg.engine.base.seed = 424242;
        cfg.engine.superblockSize = 4;
        cfg.engine.cache.capacityBytes = cacheBytes;
        cfg.numShards = 2;
        cfg.pipeline.windowAccesses = 32;
        cfg.pipeline.mode = PipelineMode::Concurrent;
        auto engine = std::make_unique<ShardedLaoram>(cfg);
        for (std::uint32_t s = 0; s < engine->numShards(); ++s)
            recordInto(engine->shard(s), &(*traces)[s]);

        serve::ServeFrontend frontend(*engine);
        serve::Session session = frontend.session();
        // Submit the whole stream before serving starts: admission
        // order (and therefore window composition) is then a pure
        // function of the script, so the cache-on and cache-off runs
        // coalesce identical windows.
        std::vector<std::future<serve::BatchResult>> futures;
        for (const auto &genBatch : script) {
            serve::Batch batch;
            for (const GenOp &op : genBatch) {
                if (op.update)
                    batch.ops.push_back(serve::Op::update(
                        op.id, std::vector<std::uint8_t>(kPayload,
                                                         op.fill)));
                else
                    batch.ops.push_back(serve::Op::lookup(op.id));
            }
            futures.push_back(session.submit(std::move(batch)));
        }
        frontend.start();
        // stop() drains everything admitted (including the final
        // partial window), so the futures are all ready after it.
        frontend.stop();
        for (auto &f : futures)
            results->push_back(f.get());
        for (std::uint32_t s = 0; s < engine->numShards(); ++s)
            engine->shard(s).storageForTest().setAccessSink(nullptr);
        return engine;
    };

    std::vector<ServerTrace> refTraces(2), cachedTraces(2);
    std::vector<serve::BatchResult> refResults, cachedResults;
    const auto reference = runFrontend(0, &refTraces, &refResults);
    const auto cached = runFrontend(
        (kBlocks / 4) * kPayload, &cachedTraces, &cachedResults);

    // The fast path actually fired (hot set + pre-warmed rows).
    std::uint64_t admissionHits = 0, coalesced = 0;
    for (std::uint32_t s = 0; s < cached->numShards(); ++s) {
        const cache::CacheStats st =
            cached->shard(s).hotCache()->stats();
        admissionHits += st.admissionHits;
        coalesced += st.writebackCoalesced;
    }
    EXPECT_GT(admissionHits, 0u);
    EXPECT_EQ(admissionHits, coalesced)
        << "every admission-time op must flush into its scheduled "
           "access";

    // Server-visible traces identical per shard; client state too.
    for (std::uint32_t s = 0; s < reference->numShards(); ++s) {
        const std::string what = "shard " + std::to_string(s);
        expectSameTrace(refTraces[s], cachedTraces[s], what);
        expectMatchesSnapshot(snapshotOf(reference->shard(s)),
                              cached->shard(s), what);
    }

    // And the answers clients saw are byte-identical: a lookup served
    // at admission returns exactly what the written-back path returns.
    ASSERT_EQ(refResults.size(), cachedResults.size());
    for (std::size_t b = 0; b < refResults.size(); ++b) {
        ASSERT_EQ(refResults[b].results.size(),
                  cachedResults[b].results.size());
        for (std::size_t i = 0; i < refResults[b].results.size(); ++i) {
            ASSERT_EQ(refResults[b].results[i].payload,
                      cachedResults[b].results[i].payload)
                << "batch " << b << " op " << i
                << " answered differently with the cache on";
        }
    }
}

} // namespace
} // namespace laoram::core
