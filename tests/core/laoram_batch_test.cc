/**
 * @file
 * Tests for LAORAM's training-batch granularity (accessBatch): the
 * paper's deployment reads every path a batch needs before training
 * (§IV-A). Batch mode must be functionally identical to bin mode and
 * reproduce its distinctive traffic/stash trade-off.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <vector>

#include "../common/scratch_dir.hh"
#include "core/laoram_client.hh"
#include "oram/evictor.hh"
#include "util/rng.hh"
#include "workload/kaggle_synth.hh"
#include "workload/permutation_gen.hh"

namespace laoram::core {
namespace {

LaoramConfig
batchConfig(std::uint64_t blocks, std::uint64_t sb,
            std::uint64_t batch, std::uint64_t payload = 0)
{
    LaoramConfig cfg;
    cfg.base.numBlocks = blocks;
    cfg.base.blockBytes = 64;
    cfg.base.payloadBytes = payload;
    cfg.base.seed = 777;
    cfg.superblockSize = sb;
    cfg.batchAccesses = batch;
    return cfg;
}

std::vector<oram::BlockId>
randomTrace(std::uint64_t n, std::uint64_t blocks, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<oram::BlockId> t(n);
    for (auto &id : t)
        id = rng.nextBounded(blocks);
    return t;
}

TEST(LaoramBatch, CountsAllAccesses)
{
    Laoram oram(batchConfig(128, 4, 64));
    const auto trace = randomTrace(1000, 128, 1);
    oram.runTrace(trace);
    EXPECT_EQ(oram.meter().counters().logicalAccesses, trace.size());
}

TEST(LaoramBatch, ShadowTableMatchesBinMode)
{
    // Batch mode and bin mode must leave identical block contents.
    auto run = [](std::uint64_t batch) {
        Laoram oram(batchConfig(96, 4, batch, 4));
        std::map<oram::BlockId, std::uint8_t> shadow;
        oram.setTouchCallback(
            [&](oram::BlockId id, std::vector<std::uint8_t> &payload) {
                const auto v =
                    static_cast<std::uint8_t>(shadow[id] + 1);
                shadow[id] = v;
                payload.assign(4, v);
            });
        oram.runTrace(randomTrace(500, 96, 2));
        oram.setTouchCallback(nullptr);
        std::map<oram::BlockId, std::vector<std::uint8_t>> contents;
        for (oram::BlockId id = 0; id < 96; ++id) {
            std::vector<std::uint8_t> out;
            oram.readBlock(id, out);
            contents[id] = out;
        }
        return std::make_pair(shadow, contents);
    };
    const auto [shadow_bin, contents_bin] = run(0);
    const auto [shadow_b64, contents_b64] = run(64);
    EXPECT_EQ(shadow_bin, shadow_b64)
        << "same trace must touch the same blocks equally";
    EXPECT_EQ(contents_bin, contents_b64);
}

TEST(LaoramBatch, InvariantAuditAfterBatchedTrace)
{
    Laoram oram(batchConfig(256, 8, 128, 8));
    oram.runTrace(randomTrace(1500, 256, 3));
    EXPECT_EQ(oram::auditTree(oram.pathIoForAudit(), oram.posmapForAudit()),
              "");
}

TEST(LaoramBatch, BatchReadsFewerTimesThanBins)
{
    // One union read per batch vs one per bin: pathReads counts the
    // logical paths either way, but the read *operations* (clock
    // round trips) shrink. Compare total simulated time instead:
    // batching amortises the link latency.
    const auto trace = randomTrace(4096, 512, 4);
    Laoram per_bin(batchConfig(512, 4, 0));
    per_bin.runTrace(trace);
    Laoram batched(batchConfig(512, 4, 512));
    batched.runTrace(trace);
    EXPECT_LT(batched.meter().clock().nanoseconds(),
              per_bin.meter().clock().nanoseconds());
}

TEST(LaoramBatch, DuplicateAcrossBinsInsideBatchEndsOnFinalPath)
{
    // A block appearing in two bins of the same batch must end up
    // positioned for its LAST occurrence's future, and be touched
    // twice (once per bin).
    Laoram oram(batchConfig(64, 2, 8, 4));
    std::map<oram::BlockId, int> touches;
    oram.setTouchCallback(
        [&](oram::BlockId id, std::vector<std::uint8_t> &) {
            ++touches[id];
        });
    // S=2, batch of 8 accesses: block 5 lands in two bins.
    oram.runTrace({5, 1, 5, 2, 3, 4, 6, 7});
    EXPECT_EQ(touches[5], 2);
    EXPECT_EQ(oram::auditTree(oram.pathIoForAudit(), oram.posmapForAudit()),
              "");
}

TEST(LaoramBatch, UnionWriteBackRelievesStashPressure)
{
    // With union write-back, a big batch covers far more tree nodes
    // per write than bin-granularity accesses do, so remapped blocks
    // find placement and the stash stays LOW — batching is strictly
    // beneficial in this implementation (per-bin mode is what
    // reproduces the paper's Fig. 8 growth regime).
    auto peak = [](std::uint64_t batch) {
        LaoramConfig cfg = batchConfig(2048, 4, batch);
        cfg.base.stashHighWater = ~std::uint64_t{0}; // no eviction
        cfg.base.stashLowWater = 0;
        Laoram oram(cfg);
        // Warm multi-epoch permutation: coalesced bins + future links.
        workload::PermutationParams pp;
        pp.numBlocks = 2048;
        pp.accesses = 2048 * 3;
        pp.seed = 5;
        oram.runTrace(workload::makePermutationTrace(pp).accesses);
        return oram.meter().counters().stashPeak;
    };
    EXPECT_LE(peak(1024), peak(0));
}

TEST(LaoramBatch, SecurityReadsEqualWrites)
{
    // Union write-back must cover exactly the union read (slot-for-
    // slot), batched or not.
    Laoram oram(batchConfig(128, 4, 256));
    std::uint64_t reads = 0, writes = 0;
    oram.storageForTest().setAccessSink(
        [&](std::uint64_t, bool write) {
            (write ? writes : reads) += 1;
        });
    oram.runTrace(randomTrace(1000, 128, 6));
    EXPECT_EQ(reads, writes);
    EXPECT_GT(reads, 0u);
}

/** FNV-1a-64 over @p n bytes, continuing from @p h. */
std::uint64_t
fnv1a(std::uint64_t h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

TEST(LaoramBatch, TrainingShapeStreamAndAtRestBytesArePinned)
{
    // A small run shaped like the training deployment (encrypted
    // 128-B rows, fat(4) tree, S = 4, 16-access batches, Kaggle-like
    // trace) pins two hashes: the adversary's (slot, isWrite) stream
    // and the final at-rest tree file. Any drift in the union order,
    // the write-back placements, the epochs or the ciphertext fails
    // here.
    if (::sysconf(_SC_PAGESIZE) != 4096)
        GTEST_SKIP() << "file layout constant assumes 4 KiB pages";
    const test::ScratchDir scratch;
    const std::string path = scratch.file("train.tree");

    LaoramConfig cfg;
    cfg.base.numBlocks = 2048;
    cfg.base.blockBytes = 128;
    cfg.base.payloadBytes = 128;
    cfg.base.encrypt = true;
    cfg.base.profile = oram::BucketProfile::fat(4);
    cfg.base.seed = 11;
    cfg.base.storage.kind = storage::BackendKind::MmapFile;
    cfg.base.storage.path = path;
    cfg.base.treetopLevels = 0; // pins the whole-path stream and file
    cfg.superblockSize = 4;
    cfg.lookaheadWindow = 512;
    cfg.lookaheadHorizon = 0; // pins the in-window schedule
    cfg.batchAccesses = 16;

    workload::KaggleParams kp;
    kp.numBlocks = cfg.base.numBlocks;
    kp.accesses = 6000;
    kp.hotSetSize = 256;
    kp.seed = 5;
    const auto trace = workload::makeKaggleTrace(kp).accesses;

    std::uint64_t stream = 0xcbf29ce484222325ULL;
    std::uint64_t events = 0;
    {
        Laoram oram(cfg);
        oram.storageForTest().setAccessSink(
            [&](std::uint64_t slot, bool write) {
                const std::uint64_t ev = (slot << 1) | (write ? 1 : 0);
                stream = fnv1a(stream, &ev, sizeof(ev));
                ++events;
            });
        // Every touch bumps a per-row counter, so real payloads vary.
        oram.setTouchCallback(
            [](oram::BlockId id, std::vector<std::uint8_t> &payload) {
                std::uint64_t count = 0;
                std::memcpy(&count, payload.data() + 8, 8);
                ++count;
                std::memcpy(payload.data(), &id, 8);
                std::memcpy(payload.data() + 8, &count, 8);
            });
        oram.runTrace(trace);
        EXPECT_EQ(oram::auditTree(oram.pathIoForAudit(),
                                  oram.posmapForAudit()),
                  "");
        oram.storageForTest().setAccessSink(nullptr);
    } // destructor persists the epoch table and flushes

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in);
    const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
    const std::uint64_t tree =
        fnv1a(0xcbf29ce484222325ULL, bytes.data(), bytes.size());

    EXPECT_EQ(events, 517226u);
    EXPECT_EQ(stream, 0xb74cef1b140eab54ULL) << std::hex << "0x" << stream;
    EXPECT_EQ(bytes.size(), 2607040u);
    EXPECT_EQ(tree, 0x85cdb962aa143d6fULL) << std::hex << "0x" << tree;
}

} // namespace
} // namespace laoram::core
