/**
 * @file
 * Long-haul randomized stress runs: interleaved reads/writes/touches
 * with hostile access patterns, periodic full-tree audits, and
 * cross-engine result comparison — parameterized over seeds so each
 * instance explores a different trajectory.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "core/laoram_client.hh"
#include "oram/evictor.hh"
#include "oram/path_oram.hh"
#include "oram/pro_oram.hh"
#include "oram/ring_oram.hh"
#include "util/rng.hh"

namespace laoram {
namespace {

using oram::BlockId;

constexpr std::uint64_t kBlocks = 192;
constexpr std::uint64_t kPayload = 8;

class StressSeeds : public ::testing::TestWithParam<std::uint64_t>
{
};

/** Hostile pattern mix: hot hammering, scans, random, bursts. */
BlockId
nextAddress(Rng &rng, int step)
{
    switch ((step / 50) % 4) {
      case 0: // hammer a tiny hot set
        return rng.nextBounded(4);
      case 1: // sequential scan
        return static_cast<BlockId>(step % kBlocks);
      case 2: // uniform random
        return rng.nextBounded(kBlocks);
      default: // strided
        return static_cast<BlockId>((step * 17) % kBlocks);
    }
}

TEST_P(StressSeeds, PathOramSurvivesHostileMix)
{
    oram::EngineConfig cfg;
    cfg.numBlocks = kBlocks;
    cfg.blockBytes = 64;
    cfg.payloadBytes = kPayload;
    cfg.encrypt = (GetParam() % 2) == 0;
    cfg.seed = GetParam();
    oram::PathOram oram(cfg);

    std::map<BlockId, std::vector<std::uint8_t>> ref;
    Rng rng(GetParam() * 31 + 1);
    for (int step = 0; step < 1200; ++step) {
        const BlockId id = nextAddress(rng, step);
        if (rng.nextBool(0.4)) {
            std::vector<std::uint8_t> data(
                kPayload, static_cast<std::uint8_t>(step));
            oram.writeBlock(id, data);
            ref[id] = data;
        } else {
            std::vector<std::uint8_t> out;
            oram.readBlock(id, out);
            const auto expect =
                ref.count(id) ? ref[id]
                              : std::vector<std::uint8_t>(kPayload, 0);
            ASSERT_EQ(out, expect) << "step " << step;
        }
        if (step % 400 == 399) {
            ASSERT_EQ(oram::auditTree(oram.pathIoForAudit(),
                                      oram.posmapForAudit()),
                      "")
                << "step " << step;
        }
    }
}

TEST_P(StressSeeds, LaoramTraceThenPointAccessesConsistent)
{
    core::LaoramConfig cfg;
    cfg.base.numBlocks = kBlocks;
    cfg.base.blockBytes = 64;
    cfg.base.payloadBytes = kPayload;
    cfg.base.seed = GetParam();
    cfg.superblockSize = 2 + GetParam() % 7;
    cfg.batchAccesses = (GetParam() % 3 == 0) ? 64 : 0;
    core::Laoram oram(cfg);

    // Phase 1: trained trace with payload mutations.
    std::map<BlockId, std::uint8_t> shadow;
    oram.setTouchCallback(
        [&](BlockId id, std::vector<std::uint8_t> &payload) {
            const auto v = static_cast<std::uint8_t>(shadow[id] + 3);
            shadow[id] = v;
            payload.assign(kPayload, v);
        });
    Rng rng(GetParam() * 101 + 7);
    std::vector<BlockId> trace;
    for (int i = 0; i < 900; ++i)
        trace.push_back(nextAddress(rng, i));
    oram.runTrace(trace);
    oram.setTouchCallback(nullptr);

    // Phase 2: interleave point writes and reads.
    for (int step = 0; step < 300; ++step) {
        const BlockId id = rng.nextBounded(kBlocks);
        if (rng.nextBool(0.3)) {
            std::vector<std::uint8_t> data(
                kPayload, static_cast<std::uint8_t>(0x80 + step));
            oram.writeBlock(id, data);
            shadow[id] = static_cast<std::uint8_t>(0x80 + step);
        } else {
            std::vector<std::uint8_t> out;
            oram.readBlock(id, out);
            const std::uint8_t v =
                shadow.count(id) ? shadow[id] : 0;
            ASSERT_EQ(out, std::vector<std::uint8_t>(kPayload, v))
                << "block " << id << " step " << step;
        }
    }
    ASSERT_EQ(oram::auditTree(oram.pathIoForAudit(), oram.posmapForAudit()),
              "");
}

TEST_P(StressSeeds, RingOramHostileMix)
{
    oram::RingOramConfig cfg;
    cfg.base.numBlocks = kBlocks;
    cfg.base.blockBytes = 64;
    cfg.base.payloadBytes = kPayload;
    cfg.base.seed = GetParam();
    cfg.realZ = 4;
    cfg.dummies = 1 + GetParam() % 5;
    cfg.evictEvery = 1 + GetParam() % 4;
    oram::RingOram oram(cfg);

    std::map<BlockId, std::vector<std::uint8_t>> ref;
    Rng rng(GetParam() * 13 + 5);
    for (int step = 0; step < 900; ++step) {
        const BlockId id = nextAddress(rng, step);
        if (rng.nextBool(0.4)) {
            std::vector<std::uint8_t> data(
                kPayload, static_cast<std::uint8_t>(step));
            oram.writeBlock(id, data);
            ref[id] = data;
        } else if (ref.count(id)) {
            std::vector<std::uint8_t> out;
            oram.readBlock(id, out);
            ASSERT_EQ(out, ref[id]) << "step " << step;
        }
        if (step % 300 == 299) {
            ASSERT_EQ(oram.auditRing(), "") << "step " << step;
        }
    }
}

TEST_P(StressSeeds, EnginesAgreeOnFinalState)
{
    // Same hostile op sequence through three engines; all final
    // contents must agree.
    oram::EngineConfig base;
    base.numBlocks = kBlocks;
    base.blockBytes = 64;
    base.payloadBytes = kPayload;
    base.seed = GetParam();

    oram::ProOramConfig pcfg;
    pcfg.base = base;
    pcfg.groupSize = 4;

    core::LaoramConfig lcfg;
    lcfg.base = base;
    lcfg.superblockSize = 4;

    std::vector<std::unique_ptr<oram::OramEngine>> engines;
    engines.push_back(std::make_unique<oram::PathOram>(base));
    engines.push_back(std::make_unique<oram::ProOram>(pcfg));
    engines.push_back(std::make_unique<core::Laoram>(lcfg));

    Rng rng(GetParam() * 7 + 3);
    for (int step = 0; step < 500; ++step) {
        const BlockId id = nextAddress(rng, step);
        std::vector<std::uint8_t> data(
            kPayload, static_cast<std::uint8_t>(step ^ 0x55));
        for (auto &e : engines)
            e->writeBlock(id, data);
    }
    for (BlockId id = 0; id < kBlocks; ++id) {
        std::vector<std::uint8_t> first;
        engines[0]->readBlock(id, first);
        for (std::size_t e = 1; e < engines.size(); ++e) {
            std::vector<std::uint8_t> other;
            engines[e]->readBlock(id, other);
            ASSERT_EQ(other, first)
                << engines[e]->name() << " block " << id;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressSeeds,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

} // namespace
} // namespace laoram
