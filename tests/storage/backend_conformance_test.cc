/**
 * @file
 * Backend conformance suite: one parameterized fixture run against
 * every SlotBackend flavour (DRAM, mmap file, the remote-KV RPC
 * backend over an in-process server, and the same RPC backend dialled
 * through a fault-injecting TCP relay that drops the connection
 * mid-suite),
 * crossed with encryption on/off and payloadBytes 0 / >0. Every
 * backend must be observationally identical through the
 * ServerStorage API — same records, same sink trace, same
 * vectored/single-slot semantics — reconnect-and-replay included.
 *
 * Plus mmap-specific persistence tests (byte-identical reads after
 * close/reopen, incompatible-file rejection, a pinned at-rest file
 * format) and an engine-level
 * test that backend choice does not change ORAM behaviour.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "../common/scratch_dir.hh"
#include "../net/flaky_proxy.hh"
#include "oram/path_oram.hh"
#include "oram/server_storage.hh"
#include "storage/dram_backend.hh"
#include "storage/mmap_backend.hh"
#include "storage/remote_backend.hh"
#include "util/rng.hh"

#include <unistd.h>

namespace laoram::oram {
namespace {

using storage::BackendKind;
using storage::SlotBackend;
using storage::StorageConfig;

/**
 * Values are pinned: ctest names each case after the raw bytes of its
 * param, so renumbering would rename the Remote/Proxied cases.
 */
enum class Flavor
{
    Dram = 0,
    Mmap = 1,
    Remote = 3,
    Proxied = 4,
};

const char *
flavorName(Flavor f)
{
    switch (f) {
      case Flavor::Dram:
        return "Dram";
      case Flavor::Mmap:
        return "Mmap";
      case Flavor::Remote:
        return "Remote";
      case Flavor::Proxied:
        return "Proxied";
    }
    return "?";
}

using Param = std::tuple<Flavor, bool /*encrypt*/, std::uint64_t
                         /*payloadBytes*/>;

std::string
paramName(const ::testing::TestParamInfo<Param> &info)
{
    const auto [flavor, encrypt, payload] = info.param;
    return std::string(flavorName(flavor))
        + (encrypt ? "Enc" : "Plain") + "P"
        + std::to_string(payload);
}

TreeGeometry
smallGeom()
{
    return TreeGeometry(64, 64, BucketProfile::uniform(4), 0);
}

class BackendConformance : public ::testing::TestWithParam<Param>
{
  protected:
    std::unique_ptr<ServerStorage>
    makeStorage(const TreeGeometry &geom, bool keepExisting = false)
    {
        const auto [flavor, encrypt, payload] = GetParam();
        switch (flavor) {
          case Flavor::Dram: {
            StorageConfig scfg;
            return std::make_unique<ServerStorage>(geom, payload,
                                                   encrypt, kSeed,
                                                   scfg);
          }
          case Flavor::Mmap: {
            StorageConfig scfg;
            scfg.kind = BackendKind::MmapFile;
            scfg.path = path;
            scfg.keepExisting = keepExisting;
            return std::make_unique<ServerStorage>(geom, payload,
                                                   encrypt, kSeed,
                                                   scfg);
          }
          case Flavor::Remote: {
            // Self-hosted RPC node over DRAM; a tiny shaped latency
            // keeps the async-write window genuinely in flight.
            StorageConfig scfg;
            scfg.kind = BackendKind::Remote;
            scfg.remote.latencyNs = 2000;
            scfg.remote.windowDepth = 2;
            auto backend = std::make_unique<storage::RemoteKvBackend>(
                scfg, geom.totalSlots(), 16 + payload, 0);
            return std::make_unique<ServerStorage>(
                geom, payload, encrypt, kSeed, std::move(backend));
          }
          case Flavor::Proxied: {
            // Endpoint-mode client dialled through a relay that cuts
            // the link after a handful of requests: every test in the
            // suite must pass across at least one reconnect + replay.
            proxiedNode = std::make_unique<storage::RemoteKvServer>(
                storage::makeBackend(StorageConfig{},
                                     geom.totalSlots(), 16 + payload,
                                     0),
                storage::RemoteKvConfig{});
            net::FaultPlan plan;
            plan.dropAfterRequests = 4;
            proxy = std::make_unique<net::FlakyProxy>(*proxiedNode,
                                                      plan);
            StorageConfig scfg;
            scfg.kind = BackendKind::Remote;
            scfg.remote.endpoint = proxy->endpoint();
            scfg.remote.maxRetries = 6;
            scfg.remote.backoffBaseMs = 2;
            scfg.remote.backoffMaxMs = 40;
            auto backend = std::make_unique<storage::RemoteKvBackend>(
                scfg, geom.totalSlots(), 16 + payload, 0);
            return std::make_unique<ServerStorage>(
                geom, payload, encrypt, kSeed, std::move(backend));
          }
        }
        return nullptr;
    }

    std::vector<std::uint8_t>
    somePayload(std::uint8_t fill) const
    {
        const auto payload = std::get<2>(GetParam());
        return std::vector<std::uint8_t>(payload, fill);
    }

    static constexpr std::uint64_t kSeed = 77;
    const test::ScratchDir scratch;
    const std::string path = scratch.file("slots.tree");

    // Proxied flavour only; declared on the fixture so they outlive
    // the test body's ServerStorage (whose teardown still talks to
    // the node through the relay).
    std::unique_ptr<storage::RemoteKvServer> proxiedNode;
    std::unique_ptr<net::FlakyProxy> proxy;
};

TEST_P(BackendConformance, StartsAllDummies)
{
    auto g = smallGeom();
    auto s = makeStorage(g);
    StoredBlock b;
    for (std::uint64_t slot = 0; slot < s->slots(); slot += 17) {
        s->readSlot(slot, b);
        EXPECT_TRUE(b.isDummy());
    }
}

TEST_P(BackendConformance, SingleSlotRoundTrip)
{
    auto g = smallGeom();
    auto s = makeStorage(g);
    const auto payload = somePayload(0x3C);
    s->writeSlot(10, 1234, 7, payload.data(), payload.size());
    StoredBlock b;
    s->readSlot(10, b);
    EXPECT_EQ(b.id, 1234u);
    EXPECT_EQ(b.leaf, 7u);
    EXPECT_EQ(b.payload, payload);
    s->writeDummy(10);
    s->readSlot(10, b);
    EXPECT_TRUE(b.isDummy());
}

TEST_P(BackendConformance, VectoredMatchesSingleSlot)
{
    auto g = smallGeom();
    auto s = makeStorage(g);

    // Vectored write of a real/dummy mix...
    const auto p1 = somePayload(0x11);
    const auto p2 = somePayload(0x22);
    const std::vector<ServerStorage::SlotWriteOp> ops = {
        {3, 100, 5, p1.data(), p1.size()},
        {4, kInvalidBlock, 0, nullptr, 0},
        {9, 200, 9, p2.data(), p2.size()},
    };
    s->writeSlots(ops.data(), ops.size());

    // ...reads back identically through both APIs.
    const std::vector<std::uint64_t> slots = {3, 4, 9};
    std::vector<StoredBlock> vec;
    s->readSlots(slots.data(), slots.size(), vec);
    ASSERT_EQ(vec.size(), 3u);
    for (std::size_t i = 0; i < slots.size(); ++i) {
        StoredBlock single;
        s->readSlot(slots[i], single);
        EXPECT_EQ(vec[i].id, single.id);
        EXPECT_EQ(vec[i].leaf, single.leaf);
        EXPECT_EQ(vec[i].payload, single.payload);
    }
    EXPECT_EQ(vec[0].id, 100u);
    EXPECT_TRUE(vec[1].isDummy());
    EXPECT_EQ(vec[2].id, 200u);
    EXPECT_EQ(vec[2].payload, p2);
}

TEST_P(BackendConformance, SinkSeesVectoredOpsPerSlotInOrder)
{
    auto g = smallGeom();
    auto s = makeStorage(g);
    std::vector<std::pair<std::uint64_t, bool>> log;
    s->setAccessSink([&](std::uint64_t slot, bool write) {
        log.emplace_back(slot, write);
    });

    const std::vector<ServerStorage::SlotWriteOp> ops = {
        {8, 1, 0, nullptr, 0},
        {2, kInvalidBlock, 0, nullptr, 0},
    };
    s->writeSlots(ops.data(), ops.size());
    const std::vector<std::uint64_t> slots = {5, 8, 2};
    std::vector<StoredBlock> vec;
    s->readSlots(slots.data(), slots.size(), vec);

    ASSERT_EQ(log.size(), 5u);
    EXPECT_EQ(log[0], std::make_pair(std::uint64_t{8}, true));
    EXPECT_EQ(log[1], std::make_pair(std::uint64_t{2}, true));
    EXPECT_EQ(log[2], std::make_pair(std::uint64_t{5}, false));
    EXPECT_EQ(log[3], std::make_pair(std::uint64_t{8}, false));
    EXPECT_EQ(log[4], std::make_pair(std::uint64_t{2}, false));
}

TEST_P(BackendConformance, IoStatsCountSlotsAndBytes)
{
    auto g = smallGeom();
    auto s = makeStorage(g);
    const storage::IoStats before = s->ioStats();

    const std::vector<std::uint64_t> slots = {1, 2, 3, 4, 5};
    std::vector<StoredBlock> vec;
    s->readSlots(slots.data(), slots.size(), vec);
    const std::vector<ServerStorage::SlotWriteOp> ops = {
        {1, 42, 0, nullptr, 0},
        {2, kInvalidBlock, 0, nullptr, 0},
    };
    s->writeSlots(ops.data(), ops.size());

    const storage::IoStats d = s->ioStats().since(before);
    EXPECT_EQ(d.readOps, 1u);  // vectored: one op per path
    EXPECT_EQ(d.slotsRead, 5u);
    EXPECT_EQ(d.bytesRead, 5 * s->recordBytes());
    EXPECT_EQ(d.writeOps, 1u);
    EXPECT_EQ(d.slotsWritten, 2u);
    EXPECT_EQ(d.bytesWritten, 2 * s->recordBytes());
    EXPECT_GE(d.readNs, 0);
    EXPECT_GE(d.writeNs, 0);

    // An empty vectored call moves nothing and is not an operation,
    // on every backend.
    const storage::IoStats mid = s->ioStats();
    s->readSlots(slots.data(), 0, vec);
    s->writeSlots(ops.data(), 0);
    const storage::IoStats e = s->ioStats().since(mid);
    EXPECT_EQ(e.readOps, 0u);
    EXPECT_EQ(e.writeOps, 0u);
    EXPECT_EQ(e.slotsRead, 0u);
    EXPECT_EQ(e.slotsWritten, 0u);
    EXPECT_TRUE(vec.empty());
}

TEST_P(BackendConformance, ResidentBytesReported)
{
    auto g = smallGeom();
    auto s = makeStorage(g);
    // Every slot was dummy-initialised (written), so a DRAM-like
    // backend reports the full array and an mmap tree at least one
    // resident page.
    EXPECT_GT(s->residentBytes(), 0u);
    if (std::get<0>(GetParam()) != Flavor::Mmap) {
        EXPECT_EQ(s->residentBytes(),
                  g.totalSlots() * s->recordBytes());
    }
}

TEST_P(BackendConformance, FlushSucceeds)
{
    auto g = smallGeom();
    auto s = makeStorage(g);
    const storage::IoStats before = s->ioStats();
    s->flush();
    EXPECT_EQ(s->ioStats().since(before).flushes, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendConformance,
    ::testing::Combine(::testing::Values(Flavor::Dram, Flavor::Mmap,
                                         Flavor::Remote,
                                         Flavor::Proxied),
                       ::testing::Bool(),
                       ::testing::Values(std::uint64_t{0},
                                         std::uint64_t{32})),
    paramName);

// ---------------------------------------------------- mmap persistence

class MmapReopen : public ::testing::TestWithParam<bool /*encrypt*/>
{
  protected:
    StorageConfig
    mmapConfig(bool keepExisting) const
    {
        StorageConfig scfg;
        scfg.kind = BackendKind::MmapFile;
        scfg.path = path;
        scfg.keepExisting = keepExisting;
        return scfg;
    }

    const test::ScratchDir scratch;
    const std::string path = scratch.file("slots.tree");
};

TEST_P(MmapReopen, ByteIdenticalAfterCloseAndReopen)
{
    const bool encrypt = GetParam();
    auto g = smallGeom();
    constexpr std::uint64_t kPayload = 24;
    constexpr std::uint64_t kSeed = 99;

    // Populate a pseudo-random mix of real and dummy slots, some
    // rewritten several times so encryption epochs diverge per slot.
    Rng rng(123);
    std::vector<StoredBlock> expect(g.totalSlots());
    {
        ServerStorage s(g, kPayload, encrypt, kSeed,
                        mmapConfig(false));
        EXPECT_FALSE(s.reopened());
        for (int round = 0; round < 3; ++round) {
            for (std::uint64_t slot = 0; slot < s.slots(); ++slot) {
                if (rng.nextBounded(3) == 0) {
                    s.writeDummy(slot);
                } else {
                    std::vector<std::uint8_t> payload(kPayload);
                    for (auto &b : payload)
                        b = static_cast<std::uint8_t>(
                            rng.nextBounded(256));
                    s.writeSlot(slot, rng.nextBounded(1 << 20),
                                rng.nextBounded(64), payload.data(),
                                payload.size());
                }
            }
        }
        for (std::uint64_t slot = 0; slot < s.slots(); ++slot)
            s.readSlot(slot, expect[slot]);
        s.flush();
    } // destructor persists epochs + schedules write-back

    // Reopen from disk: every record must decode byte-identically.
    ServerStorage s(g, kPayload, encrypt, kSeed, mmapConfig(true));
    EXPECT_TRUE(s.reopened());
    StoredBlock b;
    for (std::uint64_t slot = 0; slot < s.slots(); ++slot) {
        s.readSlot(slot, b);
        EXPECT_EQ(b.id, expect[slot].id) << "slot " << slot;
        EXPECT_EQ(b.leaf, expect[slot].leaf) << "slot " << slot;
        EXPECT_EQ(b.payload, expect[slot].payload) << "slot " << slot;
    }
}

INSTANTIATE_TEST_SUITE_P(EncryptOnOff, MmapReopen, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &i) {
                             return i.param ? "Encrypted" : "Plain";
                         });

TEST(MmapBackend, ReopenRejectsIncompatibleGeometry)
{
    const test::ScratchDir scratch;
    const std::string path = scratch.file("incompatible.tree");
    auto g = smallGeom();
    {
        ServerStorage s(g, 16, false, 0,
                        [&] {
                            StorageConfig c;
                            c.kind = BackendKind::MmapFile;
                            c.path = path;
                            return c;
                        }());
    }
    // Same file, different record size: must refuse, not clobber.
    StorageConfig c;
    c.kind = BackendKind::MmapFile;
    c.path = path;
    c.keepExisting = true;
    EXPECT_THROW(ServerStorage(g, 48, false, 0, c),
                 std::runtime_error);
}

TEST(MmapBackend, ReopenRejectsWrongEncryptionKey)
{
    const test::ScratchDir scratch;
    const std::string path = scratch.file("wrongkey.tree");
    auto g = smallGeom();
    StorageConfig c;
    c.kind = BackendKind::MmapFile;
    c.path = path;
    {
        ServerStorage s(g, 16, true, /*keySeed=*/1, c);
        std::vector<std::uint8_t> payload(16, 0x42);
        s.writeSlot(0, 7, 1, payload.data(), payload.size());
    }
    // Same geometry, different key: the key-check canary must reject
    // the reopen instead of silently decoding garbage records.
    c.keepExisting = true;
    EXPECT_THROW(ServerStorage(g, 16, true, /*keySeed=*/2, c),
                 std::runtime_error);
    // The right key still reopens fine.
    ServerStorage s(g, 16, true, 1, c);
    EXPECT_TRUE(s.reopened());
    StoredBlock b;
    s.readSlot(0, b);
    EXPECT_EQ(b.id, 7u);
}

TEST(MmapBackend, SpentEpochFailsClosedBeforeBackend)
{
    // A slot whose 32-bit write epoch is spent (forged here in the
    // persisted epoch table) must refuse its next write before any
    // record of the path reaches the backend: wrapping would reuse a
    // (slot, epoch) nonce.
    const test::ScratchDir scratch;
    const std::string path = scratch.file("spent.tree");
    auto g = smallGeom();
    constexpr std::uint64_t kPayload = 16;
    constexpr std::uint64_t kSpentSlot = 9;
    StorageConfig c;
    c.kind = BackendKind::MmapFile;
    c.path = path;
    {
        ServerStorage s(g, kPayload, true, /*keySeed=*/1, c);
    }
    c.keepExisting = true;
    {
        // Meta layout: [4 B epoch per slot][key-check canary].
        const std::uint64_t metaBytes =
            g.totalSlots() * sizeof(std::uint32_t) + crypto::kKeyCheckBytes;
        auto raw = storage::makeBackend(c, g.totalSlots(), 16 + kPayload,
                                        metaBytes);
        std::vector<std::uint8_t> meta(metaBytes);
        ASSERT_EQ(raw->readMeta(meta.data(), metaBytes), metaBytes);
        const std::uint32_t spent = 0xffffffffu;
        std::memcpy(meta.data() + kSpentSlot * sizeof(spent), &spent,
                    sizeof(spent));
        raw->writeMeta(meta.data(), metaBytes);
        raw->flush();
    }

    ServerStorage s(g, kPayload, true, 1, c);
    ASSERT_TRUE(s.reopened());
    const std::vector<std::uint8_t> payload(kPayload, 0x3c);
    const std::vector<ServerStorage::SlotWriteOp> ops = {
        {8, 80, 1, payload.data(), payload.size()},
        {kSpentSlot, 90, 2, payload.data(), payload.size()},
    };
    const std::uint64_t writesBefore = s.ioStats().writeOps;
    EXPECT_THROW(s.writeSlots(ops.data(), ops.size()), std::runtime_error);
    EXPECT_EQ(s.ioStats().writeOps, writesBefore);

    // Slot 8 was not written and its epoch did not move, so it still
    // decrypts to the dummy it was; it takes a write on its own.
    StoredBlock b;
    s.readSlot(8, b);
    EXPECT_TRUE(b.isDummy());
    s.writeSlot(8, 80, 1, payload.data(), payload.size());
    s.readSlot(8, b);
    EXPECT_EQ(b.id, 80u);
    EXPECT_EQ(b.payload, payload);
}

TEST(MmapBackend, ReopenRebuildsOccupancyBitmap)
{
    // The occupancy bitmap is client memory: a keepExisting reopen
    // rebuilds it from the tree's headers. It must come back equal,
    // and every path must read back identical blocks, over an mmap
    // file and over a self-hosted remote node persisting to one.
    auto g = smallGeom();
    constexpr std::uint64_t kPayload = 24;
    constexpr std::uint64_t kSeed = 31;
    for (const BackendKind kind :
         {BackendKind::MmapFile, BackendKind::Remote}) {
        for (const bool encrypt : {false, true}) {
            SCOPED_TRACE(std::string(kind == BackendKind::Remote
                                         ? "remote"
                                         : "mmap")
                         + (encrypt ? ", encrypted" : ", plain"));
            const test::ScratchDir scratch;
            StorageConfig c;
            c.kind = kind;
            c.path = scratch.file("occupancy.tree");

            auto readAllPaths = [&](const ServerStorage &s) {
                std::vector<std::vector<StoredBlock>> paths;
                for (Leaf leaf = 0; leaf < g.numLeaves(); ++leaf) {
                    std::vector<std::uint64_t> slots;
                    for (unsigned lvl = 0; lvl < g.numLevels(); ++lvl) {
                        const auto node = g.pathNode(leaf, lvl);
                        for (std::uint64_t z = 0; z < g.bucketSize(lvl);
                             ++z)
                            slots.push_back(g.nodeSlotBase(node) + z);
                    }
                    paths.emplace_back();
                    s.readSlots(slots.data(), slots.size(), paths.back());
                }
                return paths;
            };
            auto bitmap = [&](const ServerStorage &s) {
                std::vector<bool> bits(s.slots());
                for (std::uint64_t slot = 0; slot < s.slots(); ++slot)
                    bits[slot] = s.occupied(slot);
                return bits;
            };

            std::vector<bool> bitsBefore;
            std::vector<std::vector<StoredBlock>> pathsBefore;
            {
                ServerStorage s(g, kPayload, encrypt, kSeed, c);
                ASSERT_FALSE(s.reopened());
                // Real records over every other slot, then some of
                // them overwritten by dummies again.
                Rng rng(7);
                std::vector<std::uint8_t> payload(kPayload);
                for (std::uint64_t slot = 0; slot < s.slots();
                     slot += 2) {
                    for (auto &b : payload)
                        b = static_cast<std::uint8_t>(
                            rng.nextBounded(256));
                    s.writeSlot(slot, 100 + slot,
                                rng.nextBounded(g.numLeaves()),
                                payload.data(), payload.size());
                }
                for (std::uint64_t slot = 0; slot < s.slots();
                     slot += 6)
                    s.writeDummy(slot);
                bitsBefore = bitmap(s);
                pathsBefore = readAllPaths(s);
                EXPECT_EQ(s.auditOccupancy(), "");
            } // destructor persists epochs and flushes

            c.keepExisting = true;
            ServerStorage s(g, kPayload, encrypt, kSeed, c);
            ASSERT_TRUE(s.reopened());
            EXPECT_EQ(bitmap(s), bitsBefore);
            EXPECT_EQ(s.auditOccupancy(), "");
            const auto pathsAfter = readAllPaths(s);
            ASSERT_EQ(pathsAfter.size(), pathsBefore.size());
            for (std::size_t p = 0; p < pathsAfter.size(); ++p) {
                ASSERT_EQ(pathsAfter[p].size(), pathsBefore[p].size());
                for (std::size_t i = 0; i < pathsAfter[p].size(); ++i) {
                    const StoredBlock &a = pathsAfter[p][i];
                    const StoredBlock &b = pathsBefore[p][i];
                    ASSERT_EQ(a.id, b.id) << "path " << p << " slot " << i;
                    ASSERT_EQ(a.leaf, b.leaf)
                        << "path " << p << " slot " << i;
                    ASSERT_EQ(a.payload, b.payload)
                        << "path " << p << " slot " << i;
                }
            }
        }
    }
}

TEST(MmapBackend, KeepExistingOnMissingFileInitialisesFresh)
{
    const test::ScratchDir scratch;
    const std::string path = scratch.file("fresh.tree");
    auto g = smallGeom();
    StorageConfig c;
    c.kind = BackendKind::MmapFile;
    c.path = path;
    c.keepExisting = true;
    ServerStorage s(g, 8, true, 1, c);
    EXPECT_FALSE(s.reopened());
    StoredBlock b;
    s.readSlot(0, b);
    EXPECT_TRUE(b.isDummy());
}

TEST(MmapBackend, DropPageCacheKeepsDataReadable)
{
    const test::ScratchDir scratch;
    const std::string path = scratch.file("coldcache.tree");
    auto g = smallGeom();
    StorageConfig c;
    c.kind = BackendKind::MmapFile;
    c.path = path;
    c.durability = storage::Durability::Sync;
    ServerStorage s(g, 32, false, 0, c);
    std::vector<std::uint8_t> payload(32, 0x77);
    s.writeSlot(5, 42, 3, payload.data(), payload.size());
    s.flush();

    const std::uint64_t before = s.residentBytes();
    s.dropPageCache();
    EXPECT_LE(s.residentBytes(), before);

    StoredBlock b;
    s.readSlot(5, b); // faults back in from the file
    EXPECT_EQ(b.id, 42u);
    EXPECT_EQ(b.payload, payload);
}

/**
 * The at-rest file format — header, epoch table, key-check canary and
 * every encrypted slot — is pinned to a constant. Every other test
 * here shares the codec under test, so a drift in the record layout,
 * the nonce schedule or the meta layout would pass them all; this one
 * fails instead. The constant was captured with 4 KiB pages (the
 * header and meta regions are page-aligned).
 */
TEST(MmapBackend, AtRestBytesArePinned)
{
    if (::sysconf(_SC_PAGESIZE) != 4096)
        GTEST_SKIP() << "file layout constant assumes 4 KiB pages";
    const test::ScratchDir scratch;
    const std::string path = scratch.file("pinned.tree");
    auto g = smallGeom();
    StorageConfig c;
    c.kind = BackendKind::MmapFile;
    c.path = path;
    {
        ServerStorage s(g, 24, true, /*keySeed=*/4242, c);
        const std::vector<std::uint8_t> p1(24, 0xA5);
        const std::vector<std::uint8_t> p2 = {1, 2, 3, 4, 5};
        const std::vector<ServerStorage::SlotWriteOp> ops = {
            {7, 70, 3, p1.data(), p1.size()},
            {8, kInvalidBlock, 0, nullptr, 0},
            {200, 2000, 41, p2.data(), p2.size()},
        };
        s.writeSlots(ops.data(), ops.size());
        s.writeDummy(7);
        s.writeSlot(255, 9, 63, p1.data(), p1.size());
    } // destructor persists the epoch table and flushes

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in);
    const std::vector<char> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    std::uint64_t fnv = 0xcbf29ce484222325ULL; // FNV-1a-64
    for (const char ch : bytes) {
        fnv ^= static_cast<std::uint8_t>(ch);
        fnv *= 0x100000001b3ULL;
    }
    EXPECT_EQ(bytes.size(), 28512u);
    EXPECT_EQ(fnv, 0xf2bd24840103d771ULL) << std::hex << "0x" << fnv;
}

// ------------------------------------------- engine-level equivalence

/**
 * Backend choice must be invisible to the ORAM: the same engine over
 * DRAM and over an mmap file produces identical payloads AND an
 * identical physical access trace (the adversary's view).
 */
TEST(BackendEquivalence, PathOramIdenticalAcrossBackends)
{
    const test::ScratchDir scratch;
    const std::string path = scratch.file("equivalence.tree");

    auto run = [](const StorageConfig &scfg) {
        EngineConfig cfg;
        cfg.numBlocks = 128;
        cfg.blockBytes = 64;
        cfg.payloadBytes = 32;
        cfg.encrypt = true;
        cfg.seed = 2024;
        cfg.storage = scfg;
        PathOram oram(cfg);

        std::vector<std::pair<std::uint64_t, bool>> trace;
        oram.storageForTest().setAccessSink(
            [&](std::uint64_t slot, bool write) {
                trace.emplace_back(slot, write);
            });

        Rng rng(5);
        std::vector<std::uint8_t> payloads;
        for (int i = 0; i < 400; ++i) {
            const BlockId id = rng.nextBounded(128);
            if (rng.nextBounded(2) == 0) {
                std::vector<std::uint8_t> data(
                    32, static_cast<std::uint8_t>(i));
                oram.writeBlock(id, data);
            } else {
                std::vector<std::uint8_t> out;
                oram.readBlock(id, out);
                payloads.insert(payloads.end(), out.begin(),
                                out.end());
            }
        }
        return std::make_pair(std::move(trace), std::move(payloads));
    };

    StorageConfig dram;
    StorageConfig mmap;
    mmap.kind = BackendKind::MmapFile;
    mmap.path = path;

    const auto [dramTrace, dramPayloads] = run(dram);
    const auto [mmapTrace, mmapPayloads] = run(mmap);
    EXPECT_EQ(dramTrace, mmapTrace);
    EXPECT_EQ(dramPayloads, mmapPayloads);
}

} // namespace
} // namespace laoram::oram
