/**
 * @file
 * Randomized session-replay determinism suite for the online serving
 * frontend.
 *
 * The frontend's determinism contract: window contents are a pure
 * function of each shard lane's *arrival order* of operations
 * (serve/frontend.hh). This suite fixes arrival order — one submitter
 * thread, round-robin over the sessions, everything admitted before
 * serving starts — and replays the same per-session operation
 * sequences (derived from per-session seeds) against frontends with
 * different concurrency knobs: preprocessor-pool sizes and reorder
 * queue depths. Every replay must land on byte-identical payloads,
 * position maps, stashes, traffic counters and lookup results.
 *
 * Seed control matches the differential suite (engine_snapshot.hh):
 *   LAORAM_DIFF_SEED   base seed (default 1)
 *   LAORAM_DIFF_ITERS  iterations (default 6)
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "serve/frontend.hh"
#include "util/rng.hh"

#include "engine_snapshot.hh"

namespace laoram::core {
namespace {

using serve::Batch;
using serve::BatchResult;
using serve::Op;
using serve::ServeFrontend;
using serve::Session;

/** One drawn serving scenario: engine shape + per-session traffic. */
struct ReplayScenario
{
    ShardedLaoramConfig cfg;
    std::uint64_t queueDepth = 1;

    /** sessionBatches[s][b] is session s's b-th batch. */
    std::vector<std::vector<Batch>> sessionBatches;

    std::string
    describe() const
    {
        std::uint64_t ops = 0;
        for (const auto &batches : sessionBatches)
            for (const Batch &b : batches)
                ops += b.ops.size();
        return "blocks=" + std::to_string(cfg.engine.base.numBlocks)
               + " shards=" + std::to_string(cfg.numShards)
               + " window="
               + std::to_string(cfg.pipeline.windowAccesses)
               + " sessions="
               + std::to_string(sessionBatches.size())
               + " ops=" + std::to_string(ops)
               + " seed=" + std::to_string(cfg.engine.base.seed);
    }
};

ReplayScenario
drawScenario(Rng &rng)
{
    ReplayScenario sc;
    sc.cfg.engine.base.numBlocks = 128 + rng.nextBounded(384);
    sc.cfg.engine.base.blockBytes = 64;
    sc.cfg.engine.base.payloadBytes = 16 << rng.nextBounded(2);
    sc.cfg.engine.base.encrypt = rng.nextBool(0.5);
    sc.cfg.engine.base.seed = rng.next();
    sc.cfg.engine.superblockSize = std::uint64_t{1}
                                   << rng.nextBounded(3); // 1..4
    sc.cfg.numShards =
        2 + static_cast<std::uint32_t>(rng.nextBounded(2));
    sc.cfg.pipeline.windowAccesses = 16 + rng.nextBounded(49);
    sc.cfg.pipeline.mode = PipelineMode::Concurrent;
    sc.queueDepth = 1 + rng.nextBounded(4);

    // Per-session traffic derived from a per-session seed, so "the
    // same sequences" is reproducible independent of draw order.
    const std::uint64_t sessions = 2 + rng.nextBounded(3);
    const std::uint64_t trafficSeed = rng.next();
    for (std::uint64_t s = 0; s < sessions; ++s) {
        Rng srng(trafficSeed ^ (0x9E3779B97F4A7C15ULL * (s + 1)));
        std::vector<Batch> batches(2 + srng.nextBounded(4));
        for (Batch &batch : batches) {
            const std::uint64_t ops = 8 + srng.nextBounded(25);
            for (std::uint64_t i = 0; i < ops; ++i) {
                const BlockId id =
                    srng.nextBounded(sc.cfg.engine.base.numBlocks);
                if (srng.nextBool(0.4)) {
                    std::vector<std::uint8_t> payload(
                        sc.cfg.engine.base.payloadBytes);
                    for (std::uint8_t &b : payload)
                        b = static_cast<std::uint8_t>(srng.next());
                    batch.ops.push_back(
                        Op::update(id, std::move(payload)));
                } else {
                    batch.ops.push_back(Op::lookup(id));
                }
            }
        }
        sc.sessionBatches.push_back(std::move(batches));
    }
    return sc;
}

/** Everything a replay observably produces. */
struct ReplayOutcome
{
    std::vector<EngineSnapshot> shards;

    /** Lookup payloads in global submission order. */
    std::vector<std::vector<std::uint8_t>> lookups;

    /** The run's cross-window link pass, slowest shard lane. */
    double linkPassNs = 0.0;
};

/**
 * Replay the scenario's sessions once: admit every batch from one
 * thread in round-robin order (the fixed arrival order the contract
 * keys on) before serving starts, then serve to completion.
 */
ReplayOutcome
replayOnce(const ReplayScenario &sc, std::uint32_t prepThreads,
           std::uint64_t queueDepth)
{
    ShardedLaoramConfig cfg = sc.cfg;
    cfg.pipeline.prepThreads = prepThreads;
    cfg.pipeline.queueDepth = queueDepth;
    ShardedLaoram engine(cfg);

    std::uint64_t totalOps = 0;
    for (const auto &batches : sc.sessionBatches)
        for (const Batch &b : batches)
            totalOps += b.ops.size();

    // Room for every operation up front (at most 640 per scenario):
    // arrival order is then fully decided before start(), independent
    // of serving speed.
    EXPECT_LE(totalOps, ServeFrontend::kAdmissionOps);
    ServeFrontend frontend(engine);

    std::vector<Session> sessions;
    for (std::size_t s = 0; s < sc.sessionBatches.size(); ++s)
        sessions.push_back(frontend.session());

    std::vector<std::future<BatchResult>> futures;
    std::size_t maxBatches = 0;
    for (const auto &batches : sc.sessionBatches)
        maxBatches = std::max(maxBatches, batches.size());
    for (std::size_t b = 0; b < maxBatches; ++b) {
        for (std::size_t s = 0; s < sc.sessionBatches.size(); ++s) {
            if (b < sc.sessionBatches[s].size())
                futures.push_back(
                    sessions[s].submit(sc.sessionBatches[s][b]));
        }
    }

    frontend.start();
    frontend.flush();

    ReplayOutcome out;
    std::size_t f = 0;
    for (std::size_t b = 0; b < maxBatches; ++b) {
        for (std::size_t s = 0; s < sc.sessionBatches.size(); ++s) {
            if (b >= sc.sessionBatches[s].size())
                continue;
            const BatchResult res = futures[f++].get();
            const Batch &batch = sc.sessionBatches[s][b];
            EXPECT_EQ(res.results.size(), batch.ops.size());
            for (std::size_t i = 0; i < res.results.size(); ++i) {
                if (batch.ops[i].type == serve::OpType::Lookup)
                    out.lookups.push_back(res.results[i].payload);
            }
        }
    }
    out.linkPassNs = frontend.stop().aggregate.wallLinkPassNs;

    for (std::uint32_t s = 0; s < engine.numShards(); ++s)
        out.shards.push_back(snapshotOf(engine.shard(s)));
    return out;
}

/** Two replays' outcomes match byte for byte. */
void
expectSameOutcome(const ReplayOutcome &ref, const ReplayOutcome &got,
                  const std::string &what)
{
    ASSERT_EQ(got.lookups.size(), ref.lookups.size());
    for (std::size_t i = 0; i < ref.lookups.size(); ++i)
        ASSERT_EQ(got.lookups[i], ref.lookups[i])
            << what << ": lookup " << i << " diverges";

    ASSERT_EQ(got.shards.size(), ref.shards.size());
    // Both engines are gone by now; compare their captured snapshots
    // field by field.
    for (std::size_t s = 0; s < ref.shards.size(); ++s) {
        const EngineSnapshot &a = ref.shards[s];
        const EngineSnapshot &b = got.shards[s];
        const std::string where = what + ": shard " + std::to_string(s);
        EXPECT_EQ(a.counters.logicalAccesses, b.counters.logicalAccesses)
            << where;
        EXPECT_EQ(a.counters.pathReads, b.counters.pathReads) << where;
        EXPECT_EQ(a.counters.pathWrites, b.counters.pathWrites) << where;
        EXPECT_EQ(a.counters.bytesRead, b.counters.bytesRead) << where;
        EXPECT_EQ(a.counters.bytesWritten, b.counters.bytesWritten)
            << where;
        EXPECT_EQ(a.counters.stashPeak, b.counters.stashPeak) << where;
        EXPECT_DOUBLE_EQ(a.simNs, b.simNs) << where;
        EXPECT_EQ(a.stashSize, b.stashSize) << where;
        ASSERT_EQ(a.posmap, b.posmap) << where;
        EXPECT_EQ(a.binsFormed, b.binsFormed) << where;
        EXPECT_EQ(a.futureLinked, b.futureLinked) << where;
        ASSERT_EQ(a.payloads, b.payloads) << where;
    }
}

class SessionReplayDeterminism : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        std::printf("[ LAORAM   ] session-replay seed=%llu "
                    "iters=%llu\n",
                    static_cast<unsigned long long>(diffSeed()),
                    static_cast<unsigned long long>(diffIters()));
    }
};

TEST_F(SessionReplayDeterminism, ReplayMatchesAcrossPoolSizes)
{
    Rng rng(diffSeed() ^ 0x5E55ULL);
    const std::uint64_t iters = diffIters();
    for (std::uint64_t iter = 0; iter < iters; ++iter) {
        const ReplayScenario sc = drawScenario(rng);
        SCOPED_TRACE("iter " + std::to_string(iter) + ": "
                     + sc.describe());

        const ReplayOutcome ref =
            replayOnce(sc, /*prepThreads=*/1, /*queueDepth=*/1);

        struct Leg
        {
            std::uint32_t prepThreads;
            std::uint64_t queueDepth;
        };
        const Leg legs[] = {
            {1, 1},             // replay twice
            {2, sc.queueDepth}, // prep pool of 2
            {4, sc.queueDepth}, // prep pool of 4
        };
        for (const Leg &leg : legs) {
            const std::string what =
                "P=" + std::to_string(leg.prepThreads)
                + " depth=" + std::to_string(leg.queueDepth);
            SCOPED_TRACE(what);
            const ReplayOutcome got =
                replayOnce(sc, leg.prepThreads, leg.queueDepth);

            expectSameOutcome(ref, got, what);
        }
    }
}

TEST_F(SessionReplayDeterminism, FrontendWindowsCarryNoStreamAtAnyHorizon)
{
    // Online windows are coalesced from admitted operations, so the
    // frontend's lanes cannot see past them: their windows carry no
    // stream, no link pass runs, and the default whole-stream horizon
    // serves exactly the schedule of in-window links (horizon 0).
    Rng rng(diffSeed() ^ 0x4021ULL);
    const std::uint64_t iters = diffIters();
    for (std::uint64_t iter = 0; iter < iters; ++iter) {
        ReplayScenario sc = drawScenario(rng);
        SCOPED_TRACE("iter " + std::to_string(iter) + ": "
                     + sc.describe());
        ASSERT_EQ(sc.cfg.engine.lookaheadHorizon, kWholeStream);
        const ReplayOutcome whole = replayOnce(sc, 2, sc.queueDepth);
        EXPECT_EQ(whole.linkPassNs, 0.0);
        sc.cfg.engine.lookaheadHorizon = 0;
        const ReplayOutcome inWindow = replayOnce(sc, 2, sc.queueDepth);
        expectSameOutcome(inWindow, whole, "default horizon");
    }
}

} // namespace
} // namespace laoram::core
