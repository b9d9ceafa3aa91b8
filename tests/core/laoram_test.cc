/**
 * @file
 * LAORAM engine tests: functional correctness, the steady-state
 * path-coalescing property that produces the paper's speedups, stash
 * behaviour with superblocks, and the fat tree's effect on dummy
 * reads (paper §IV, §V, Table II).
 */

#include <gtest/gtest.h>

#include <map>
#include <type_traits>
#include <vector>

#include "core/laoram_client.hh"
#include "oram/evictor.hh"
#include "oram/path_oram.hh"
#include "util/rng.hh"
#include "workload/permutation_gen.hh"

namespace laoram::core {
namespace {

LaoramConfig
laoramConfig(std::uint64_t blocks, std::uint64_t sb,
             bool fat = false, std::uint64_t payload = 0)
{
    LaoramConfig cfg;
    cfg.base.numBlocks = blocks;
    cfg.base.blockBytes = 64;
    cfg.base.payloadBytes = payload;
    cfg.base.profile =
        fat ? oram::BucketProfile::fat(4) : oram::BucketProfile::uniform(4);
    cfg.base.seed = 1234;
    cfg.superblockSize = sb;
    return cfg;
}

TEST(Laoram, NameReflectsConfig)
{
    Laoram normal(laoramConfig(64, 4));
    EXPECT_EQ(normal.name(), "LAORAM/S4");
    Laoram fat(laoramConfig(64, 8, true));
    EXPECT_EQ(fat.name(), "LAORAM-fat/S8");
}

TEST(Laoram, SingleAccessReadYourWrites)
{
    Laoram oram(laoramConfig(64, 4, false, 16));
    std::vector<std::uint8_t> data(16, 0x7E);
    oram.writeBlock(9, data);
    std::vector<std::uint8_t> out;
    oram.readBlock(9, out);
    EXPECT_EQ(out, data);
}

TEST(Laoram, SingleAccessServesAndFlushesDeferredCacheUpdates)
{
    LaoramConfig cfg = laoramConfig(64, 4, false, 16);
    cfg.cache.capacityBytes = 8 * 16;
    Laoram oram(cfg);

    // writeBlock admits the row, then a frontend-style fast path
    // defers an acknowledged update into it (pinning the row).
    oram.writeBlock(9, std::vector<std::uint8_t>(16, 0xAA));
    ASSERT_TRUE(oram.hotCache()->tryServeAtAdmission(
        9, [](std::vector<std::uint8_t> &row) {
            row.assign(row.size(), 0xBB);
        }));

    // The single-access read must return the deferred value — not the
    // stale stash bytes — and double as its coalesced write-back.
    std::vector<std::uint8_t> out;
    oram.readBlock(9, out);
    EXPECT_EQ(out, std::vector<std::uint8_t>(16, 0xBB));
    EXPECT_EQ(oram.hotCache()->stats().writebackCoalesced, 1u);

    // The pin is released and the update reached the stash/tree:
    // evict the cache and re-read from ORAM alone.
    oram.hotCache()->clear();
    oram.readBlock(9, out);
    EXPECT_EQ(out, std::vector<std::uint8_t>(16, 0xBB));
}

TEST(Laoram, RunTraceCountsAllAccesses)
{
    Laoram oram(laoramConfig(64, 4));
    std::vector<oram::BlockId> trace{1, 2, 3, 4, 5, 6, 7, 1};
    oram.runTrace(trace);
    EXPECT_EQ(oram.meter().counters().logicalAccesses, trace.size());
    EXPECT_EQ(oram.accessesPreprocessed(), trace.size());
    EXPECT_GE(oram.binsFormed(), 2u);
}

TEST(Laoram, InvariantAuditAfterTrace)
{
    Laoram oram(laoramConfig(128, 4, false, 8));
    Rng rng(3);
    std::vector<oram::BlockId> trace;
    for (int i = 0; i < 600; ++i)
        trace.push_back(rng.nextBounded(128));
    oram.runTrace(trace);
    EXPECT_EQ(oram::auditTree(oram.pathIoForAudit(), oram.posmapForAudit()),
              "");
}

TEST(Laoram, TouchCallbackSeesEveryMember)
{
    Laoram oram(laoramConfig(64, 4, false, 8));
    std::map<oram::BlockId, int> touched;
    oram.setTouchCallback(
        [&](oram::BlockId id, std::vector<std::uint8_t> &) {
            ++touched[id];
        });
    std::vector<oram::BlockId> trace{1, 2, 3, 4, 5, 6, 7, 8};
    oram.runTrace(trace);
    EXPECT_EQ(touched.size(), 8u);
    for (const auto &[id, n] : touched)
        EXPECT_EQ(n, 1) << "block " << id;
}

TEST(Laoram, TouchCallbackPayloadPersists)
{
    // Mutations made by the touch callback must round-trip through the
    // (encrypted) tree to later reads.
    LaoramConfig cfg = laoramConfig(32, 2, false, 8);
    cfg.base.encrypt = true;
    Laoram oram(cfg);
    oram.setTouchCallback(
        [](oram::BlockId id, std::vector<std::uint8_t> &payload) {
            payload.assign(8, static_cast<std::uint8_t>(0xA0 + id));
        });
    oram.runTrace({1, 2, 3, 4});
    oram.setTouchCallback(nullptr);
    std::vector<std::uint8_t> out;
    oram.readBlock(3, out);
    EXPECT_EQ(out, std::vector<std::uint8_t>(8, 0xA3));
}

TEST(Laoram, SteadyStateCoalescesPathReads)
{
    // The core claim (paper §IV): once every member of a bin was
    // remapped onto the bin's path by its previous access, the bin is
    // served by ONE path read. Epoch 1 is cold (random initial
    // positions); epoch 2+ must approach 1 read per bin = 1/S per
    // access.
    constexpr std::uint64_t kBlocks = 512;
    constexpr std::uint64_t kS = 4;
    Laoram oram(laoramConfig(kBlocks, kS));

    workload::PermutationParams pp;
    pp.numBlocks = kBlocks;
    pp.accesses = kBlocks * 7; // seven epochs
    pp.seed = 5;
    const auto trace = workload::makePermutationTrace(pp).accesses;

    // Epoch 1 (cold): preprocessed alone, so every block's future is
    // unknown and positions stay random.
    std::vector<oram::BlockId> epoch1(trace.begin(),
                                      trace.begin() + kBlocks);
    oram.runTrace(epoch1);
    const auto cold = oram.meter().counters();
    // Cold: virtually every member sits on a distinct random path.
    EXPECT_GT(cold.pathReadsPerAccess(), 0.8);

    // Epochs 2-7 preprocessed as ONE look-ahead window: epoch 2 is
    // still cold (epoch 1 couldn't see ahead), but epochs 3-7 find
    // every bin member pre-placed on the bin's path, collapsing reads
    // ~S-fold (expected ~ (1 + 5/S) / 6 ≈ 0.375 reads/access here).
    std::vector<oram::BlockId> warm(trace.begin() + kBlocks,
                                    trace.end());
    oram.runTrace(warm);
    const auto total = oram.meter().counters();
    const auto warm_delta = total.since(cold);
    const double warm_rpa = static_cast<double>(warm_delta.pathReads)
        / static_cast<double>(warm_delta.logicalAccesses);
    EXPECT_LT(warm_rpa, 0.5); // far below cold's ~1.0
}

TEST(Laoram, LookaheadWindowBoundariesStillCorrect)
{
    LaoramConfig cfg = laoramConfig(64, 4, false, 8);
    cfg.lookaheadWindow = 7; // deliberately awkward
    Laoram oram(cfg);
    std::map<oram::BlockId, std::uint8_t> shadow;
    oram.setTouchCallback(
        [&](oram::BlockId id, std::vector<std::uint8_t> &payload) {
            payload.assign(8, static_cast<std::uint8_t>(id));
            shadow[id] = static_cast<std::uint8_t>(id);
        });
    Rng rng(6);
    std::vector<oram::BlockId> trace;
    for (int i = 0; i < 100; ++i)
        trace.push_back(rng.nextBounded(64));
    oram.runTrace(trace);
    oram.setTouchCallback(nullptr);
    for (const auto &[id, val] : shadow) {
        std::vector<std::uint8_t> out;
        oram.readBlock(id, out);
        EXPECT_EQ(out, std::vector<std::uint8_t>(8, val));
    }
}

TEST(Laoram, BiggerSuperblocksRaiseStashPressure)
{
    // Paper §V: superblocks above ~2 blocks grow the stash quickly.
    auto run = [](std::uint64_t s) {
        LaoramConfig cfg = laoramConfig(1024, s);
        cfg.base.stashHighWater = 100000; // disable background evict
        cfg.base.stashLowWater = 0;
        Laoram oram(cfg);
        workload::PermutationParams pp;
        pp.numBlocks = 1024;
        pp.accesses = 4096;
        pp.seed = 7;
        oram.runTrace(workload::makePermutationTrace(pp).accesses);
        return oram.meter().counters().stashPeak;
    };
    const auto peak2 = run(2);
    const auto peak8 = run(8);
    EXPECT_GT(peak8, peak2);
}

TEST(Laoram, FatTreeCutsDummyReads)
{
    // Paper Table II: at equal superblock size the fat tree needs far
    // fewer background evictions.
    auto run = [](bool fat) {
        LaoramConfig cfg = laoramConfig(1024, 8, fat);
        cfg.base.stashHighWater = 100;
        cfg.base.stashLowWater = 20;
        Laoram oram(cfg);
        workload::PermutationParams pp;
        pp.numBlocks = 1024;
        pp.accesses = 6144;
        pp.seed = 8;
        oram.runTrace(workload::makePermutationTrace(pp).accesses);
        return oram.meter().counters().dummyReads;
    };
    const auto normal_dummies = run(false);
    const auto fat_dummies = run(true);
    EXPECT_LT(fat_dummies, normal_dummies);
}

TEST(Laoram, NewPathAssignmentUniform)
{
    // §VI obliviousness: the leaf a block is remapped to is uniform,
    // whether it came from preprocessor metadata or the random
    // fallback.
    Laoram oram(laoramConfig(256, 4));
    const std::uint64_t leaves = oram.geometry().numLeaves();
    Rng rng(9);
    std::vector<oram::BlockId> trace;
    for (int i = 0; i < 8192; ++i)
        trace.push_back(rng.nextBounded(256));
    oram.runTrace(trace);
    std::vector<std::uint64_t> hist(leaves, 0);
    for (oram::BlockId id = 0; id < 256; ++id)
        ++hist[oram.posmapForAudit().get(id)];
    const double expected = 256.0 / static_cast<double>(leaves);
    double chi2 = 0;
    for (auto c : hist) {
        chi2 += (static_cast<double>(c) - expected)
            * (static_cast<double>(c) - expected) / expected;
    }
    // df = leaves-1 = 255; generous cutoff.
    EXPECT_LT(chi2, 340.0);
}

TEST(Laoram, AccessBinValidatesMetadata)
{
    Laoram oram(laoramConfig(16, 2));
    SuperblockBin bin;
    bin.members = {1, 2};
    bin.rawAccesses = 2;
    // nextPaths missing -> hard failure, not silent corruption.
    EXPECT_DEATH(oram.accessBatch(&bin, 1), "future-path");
}

TEST(Laoram, SuperblockSizeOneMatchesPathOramTraffic)
{
    LaoramConfig cfg = laoramConfig(256, 1);
    Laoram laoram(cfg);
    oram::EngineConfig pcfg = cfg.base;
    oram::PathOram path(pcfg);

    Rng rng(10);
    std::vector<oram::BlockId> trace;
    for (int i = 0; i < 1000; ++i)
        trace.push_back(rng.nextBounded(256));
    laoram.runTrace(trace);
    path.runTrace(trace);

    EXPECT_EQ(laoram.meter().counters().pathReads,
              path.meter().counters().pathReads);
    EXPECT_EQ(laoram.meter().counters().bytesRead,
              path.meter().counters().bytesRead);
}

/**
 * Sweep correctness across superblock sizes and tree profiles. gtest
 * names each case after the raw bytes of its parameter, so the padding
 * is spelled out and zeroed to keep those names build-stable.
 */
struct LaoramCase
{
    std::uint64_t superblock;
    bool fat;
    std::uint8_t zeroPad[7]{};
};
static_assert(std::has_unique_object_representations_v<LaoramCase>);

class LaoramSweep : public ::testing::TestWithParam<LaoramCase>
{
};

TEST_P(LaoramSweep, ShadowTableMatches)
{
    const auto p = GetParam();
    LaoramConfig cfg = laoramConfig(128, p.superblock, p.fat, 4);
    Laoram oram(cfg);
    std::map<oram::BlockId, std::uint8_t> shadow;
    oram.setTouchCallback(
        [&](oram::BlockId id, std::vector<std::uint8_t> &payload) {
            const std::uint8_t v =
                static_cast<std::uint8_t>(shadow[id] + 1);
            shadow[id] = v;
            payload.assign(4, v);
        });
    Rng rng(p.superblock * 7 + p.fat);
    std::vector<oram::BlockId> trace;
    for (int i = 0; i < 400; ++i)
        trace.push_back(rng.nextBounded(128));
    oram.runTrace(trace);
    oram.setTouchCallback(nullptr);

    for (const auto &[id, v] : shadow) {
        std::vector<std::uint8_t> out;
        oram.readBlock(id, out);
        EXPECT_EQ(out, std::vector<std::uint8_t>(4, v))
            << "block " << id;
    }
    EXPECT_EQ(oram::auditTree(oram.pathIoForAudit(), oram.posmapForAudit()),
              "");
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, LaoramSweep,
    ::testing::Values(LaoramCase{1, false}, LaoramCase{2, false},
                      LaoramCase{4, false}, LaoramCase{8, false},
                      LaoramCase{2, true}, LaoramCase{4, true},
                      LaoramCase{8, true}));

} // namespace
} // namespace laoram::core
