/**
 * @file
 * Treetop differential suite: keeping the top k tree levels in client
 * memory (ServerStorage's treetop) must change what reaches the
 * server and nothing else.
 *
 *  - Engines: the same trace through LAORAM (encrypted 128-B rows,
 *    mmap), PathORAM, PrORAM and recursive PathORAM at k in
 *    {0, 1, auto, L} gives the k = 0 run's adversary stream with the
 *    prefix slots filtered out, the same logical state, the same
 *    decoded contents in every slot and the same at-rest bytes and
 *    epochs below the prefix; the client reads only the prefix
 *    slots that hold real records, and a flush writes exactly the
 *    prefix. Every leg has a uniform profile, whose tree is the same
 *    at every k (a fat tree's top widens with k, so it has no k = 0
 *    twin).
 *  - Codec: mixed slot orders (prefix slots anywhere in a request)
 *    decode like a whole-tree storage of the same uniform tree.
 *  - Reopen: a flushed uniform tree reopens with any number of its
 *    levels in client memory, with the prefix,
 *    the occupancy bitmap and every path intact; a fat tree written
 *    at one k is refused at another, by name, while a forged header
 *    is refused without that hint.
 *  - At-rest dummies: after a flush every unoccupied prefix record
 *    decrypts to the canonical dummy, though the client rewrote only
 *    the id header of a record that left its slot.
 *  - Kill/restore: a LAORAM run killed at a window boundary at the
 *    default k finishes byte-identically to an uninterrupted one.
 *  - Stash: over a whole-horizon Kaggle-like run the wide top keeps
 *    the stash small and empties it, where §V's linear fat tree at
 *    k = 0 lets it grow.
 *  - Teardown: destroying a storage writes the prefix back only to a
 *    persistent backend.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "../common/scratch_dir.hh"
#include "core/laoram_client.hh"
#include "core/pipeline.hh"
#include "crypto/encryptor.hh"
#include "engine_snapshot.hh"
#include "oram/evictor.hh"
#include "oram/path_oram.hh"
#include "oram/pro_oram.hh"
#include "oram/recursive_posmap.hh"
#include "util/rng.hh"
#include "workload/kaggle_synth.hh"

namespace laoram {
namespace {

using oram::BlockId;
using oram::EngineConfig;
using oram::Leaf;
using oram::ServerStorage;
using oram::StoredBlock;

struct Event
{
    std::uint64_t slot;
    bool write;

    bool
    operator==(const Event &o) const
    {
        return slot == o.slot && write == o.write;
    }
};

void
record(ServerStorage &storage, std::vector<Event> &events)
{
    storage.setAccessSink([&events](std::uint64_t slot, bool write) {
        events.push_back({slot, write});
    });
}

void
expectSameBlock(const StoredBlock &a, const StoredBlock &b,
                const std::string &what)
{
    EXPECT_EQ(a.id, b.id) << what;
    EXPECT_EQ(a.leaf, b.leaf) << what;
    EXPECT_EQ(a.payload, b.payload) << what;
}

/** One engine of the differential, over an encrypted mmap tree. */
struct EngineRun
{
    std::unique_ptr<oram::OramEngine> engine;
    ServerStorage *storage = nullptr;
    std::function<Leaf(BlockId)> posOf;
};

enum class Kind { Laoram, PathOram, ProOram, Recursive };

const char *
kindName(Kind kind)
{
    switch (kind) {
      case Kind::Laoram:
        return "Laoram";
      case Kind::PathOram:
        return "PathOram";
      case Kind::ProOram:
        return "ProOram";
      case Kind::Recursive:
        return "Recursive";
    }
    return "?";
}

EngineConfig
engineConfig(Kind kind, unsigned treetopLevels, const std::string &path)
{
    EngineConfig cfg;
    cfg.encrypt = true;
    cfg.seed = 31;
    cfg.treetopLevels = treetopLevels;
    cfg.storage.kind = storage::BackendKind::MmapFile;
    cfg.storage.path = path;
    if (kind == Kind::Laoram) {
        // The training deployment's rows, small. Uniform buckets: the
        // k-differential needs a tree whose shape does not depend on
        // k, and fat(4)'s does; the wide-top fat tree is covered by
        // KillRestoreAtDefaultK and DifferentialDeterminism.
        cfg.numBlocks = 2048;
        cfg.blockBytes = 128;
        cfg.payloadBytes = 128;
        cfg.profile = oram::BucketProfile::uniform(4);
    } else {
        // Tight buckets and low marks so the dummy drain runs.
        cfg.numBlocks = kind == Kind::Recursive ? 2048 : 512;
        cfg.blockBytes = 64;
        cfg.payloadBytes = 16;
        cfg.profile = oram::BucketProfile::uniform(2);
        cfg.stashHighWater = 4;
        cfg.stashLowWater = 1;
    }
    return cfg;
}

EngineRun
makeRun(Kind kind, const EngineConfig &cfg)
{
    EngineRun run;
    switch (kind) {
      case Kind::Laoram: {
        core::LaoramConfig lcfg;
        lcfg.base = cfg;
        lcfg.superblockSize = 4;
        lcfg.lookaheadWindow = 512;
        lcfg.lookaheadHorizon = 0;
        lcfg.batchAccesses = 16;
        auto e = std::make_unique<core::Laoram>(lcfg);
        run.storage = &e->storageForTest();
        run.posOf = [p = e.get()](BlockId id) {
            return p->posmapForAudit().get(id);
        };
        run.engine = std::move(e);
        break;
      }
      case Kind::PathOram: {
        auto e = std::make_unique<oram::PathOram>(cfg);
        run.storage = &e->storageForTest();
        run.posOf = [p = e.get()](BlockId id) {
            return p->posmapForAudit().get(id);
        };
        run.engine = std::move(e);
        break;
      }
      case Kind::ProOram: {
        oram::ProOramConfig pcfg;
        pcfg.base = cfg;
        auto e = std::make_unique<oram::ProOram>(pcfg);
        run.storage = &e->storageForTest();
        run.posOf = [p = e.get()](BlockId id) {
            return p->posmapForAudit().get(id);
        };
        run.engine = std::move(e);
        break;
      }
      case Kind::Recursive: {
        oram::RecursiveConfig rcfg;
        rcfg.packing = 8;
        rcfg.directThreshold = 16;
        rcfg.encrypt = true;
        rcfg.seed = 13;
        auto e = std::make_unique<oram::RecursivePathOram>(cfg, rcfg);
        run.storage = &e->storageForTest();
        run.posOf = [p = e.get()](BlockId id) {
            return p->positionMap().peek(id);
        };
        run.engine = std::move(e);
        break;
      }
    }
    return run;
}

/** The one trace every k runs: writes, then reads and touches. */
void
drive(Kind kind, oram::OramEngine &engine)
{
    const std::uint64_t blocks = engine.config().numBlocks;
    const std::size_t payload = engine.config().payloadBytes;
    std::vector<std::uint8_t> data(payload, 0);
    Rng rng(77);
    if (kind == Kind::Laoram) {
        for (BlockId id = 0; id < blocks; id += 3) {
            for (std::size_t i = 0; i < payload; ++i)
                data[i] = static_cast<std::uint8_t>(id * 7 + i);
            engine.writeBlock(id, data);
        }
        workload::KaggleParams kp;
        kp.numBlocks = blocks;
        kp.accesses = 3000;
        kp.hotSetSize = 256;
        kp.seed = 5;
        engine.runTrace(workload::makeKaggleTrace(kp).accesses);
        return;
    }
    std::vector<std::uint8_t> out;
    for (int i = 0; i < 2500; ++i) {
        const BlockId id = rng.nextBounded(blocks);
        if (i % 3 == 0) {
            data[0] = static_cast<std::uint8_t>(id);
            data[payload - 1] = static_cast<std::uint8_t>(i);
            engine.writeBlock(id, data);
        } else if (i % 3 == 1) {
            engine.readBlock(id, out);
        } else {
            engine.touch(id);
        }
    }
}

/** Raw at-rest slot records and epoch table of a closed tree file. */
struct AtRest
{
    std::vector<std::uint8_t> records;
    std::vector<std::uint32_t> epochs;
};

AtRest
readAtRest(const std::string &path, std::uint64_t slots,
           std::uint64_t recordBytes)
{
    storage::StorageConfig sc;
    sc.kind = storage::BackendKind::MmapFile;
    sc.path = path;
    sc.keepExisting = true;
    const std::uint64_t metaBytes =
        slots * sizeof(std::uint32_t) + crypto::kKeyCheckBytes;
    auto backend = storage::makeBackend(sc, slots, recordBytes, metaBytes);
    AtRest r;
    std::vector<std::uint64_t> all(slots);
    for (std::uint64_t s = 0; s < slots; ++s)
        all[s] = s;
    r.records.resize(slots * recordBytes);
    backend->readSlots(all.data(), slots, r.records.data());
    std::vector<std::uint8_t> meta(metaBytes);
    EXPECT_EQ(backend->readMeta(meta.data(), metaBytes), metaBytes);
    r.epochs.resize(slots);
    std::memcpy(r.epochs.data(), meta.data(),
                slots * sizeof(std::uint32_t));
    return r;
}

class TreetopEngines : public ::testing::TestWithParam<Kind>
{
  protected:
    const test::ScratchDir scratch;
};

TEST_P(TreetopEngines, MatchWholeTreeRunAtEveryK)
{
    const Kind kind = GetParam();

    // The k = 0 reference.
    const std::string refPath = scratch.file("k0.tree");
    EngineRun ref = makeRun(kind, engineConfig(kind, 0, refPath));
    const oram::TreeGeometry geom = ref.engine->geometry();
    const std::uint64_t slots = geom.totalSlots();
    const std::uint64_t recBytes = ref.storage->recordBytes();
    // Beside each event, whether its slot held a real record then:
    // the client reads a treetop slot only when it does.
    std::vector<Event> refEvents;
    std::vector<bool> refReal;
    ServerStorage &refStorage = *ref.storage;
    refStorage.setAccessSink(
        [&refEvents, &refReal, &refStorage](std::uint64_t slot, bool write) {
            refEvents.push_back({slot, write});
            refReal.push_back(refStorage.occupied(slot));
        });
    drive(kind, *ref.engine);
    ref.storage->setAccessSink(nullptr);
    std::vector<StoredBlock> refSlots(slots);
    for (std::uint64_t s = 0; s < slots; ++s)
        ref.storage->readSlot(s, refSlots[s]);
    const mem::TrafficCounters refCounters = ref.engine->meter().counters();
    std::vector<Leaf> refPos;
    for (BlockId id = 0; id < geom.numBlocks(); ++id)
        refPos.push_back(ref.posOf(id));
    ref = EngineRun{}; // final flush
    const AtRest refRest = readAtRest(refPath, slots, recBytes);

    for (const unsigned want :
         {1u, oram::kAutoTreetop, geom.leafLevel()}) {
        const std::string path = scratch.file(
            "k" + std::to_string(want) + ".tree");
        EngineRun run = makeRun(kind, engineConfig(kind, want, path));
        ServerStorage &storage = *run.storage;
        const unsigned k = storage.treetopLevels();
        const std::uint64_t top = storage.treetopSlots();
        const std::string what = std::string(kindName(kind)) + " k "
            + std::to_string(k);
        ASSERT_EQ(k, want == oram::kAutoTreetop
                         ? geom.numLevels() / 2
                         : want)
            << what;
        ASSERT_EQ(top, geom.levelFirstSlot(k)) << what;
        ASSERT_GT(top, 0u) << what;

        std::vector<Event> events;
        record(storage, events);
        const std::uint64_t topReadsBefore = storage.treetopStats().slotsRead;
        drive(kind, *run.engine);

        // The server saw the reference stream minus the prefix.
        std::vector<Event> filtered;
        std::uint64_t prefixReads = 0;
        std::uint64_t prefixRealReads = 0;
        for (std::size_t i = 0; i < refEvents.size(); ++i) {
            const Event &e = refEvents[i];
            if (e.slot >= top) {
                filtered.push_back(e);
            } else if (!e.write) {
                ++prefixReads;
                prefixRealReads += refReal[i];
            }
        }
        EXPECT_EQ(events.size(), filtered.size()) << what;
        EXPECT_TRUE(events == filtered) << what;
        EXPECT_EQ(storage.treetopStats().slotsRead - topReadsBefore,
                  prefixRealReads)
            << what;

        // Same logical run; the meter charges only server slots.
        const mem::TrafficCounters &c = run.engine->meter().counters();
        EXPECT_EQ(c.logicalAccesses, refCounters.logicalAccesses) << what;
        EXPECT_EQ(c.pathReads, refCounters.pathReads) << what;
        EXPECT_EQ(c.dummyReads, refCounters.dummyReads) << what;
        EXPECT_EQ(c.stashPeak, refCounters.stashPeak) << what;
        EXPECT_EQ(c.blocksRead, refCounters.blocksRead - prefixReads)
            << what;
        EXPECT_EQ(c.bytesRead,
                  refCounters.bytesRead - prefixReads * geom.blockBytes())
            << what;
        for (BlockId id = 0; id < geom.numBlocks(); ++id)
            ASSERT_EQ(run.posOf(id), refPos[id]) << what << " block " << id;

        // Every slot decodes as in the reference, treetop included.
        storage.setAccessSink(nullptr);
        StoredBlock b;
        for (std::uint64_t s = 0; s < slots; ++s) {
            storage.readSlot(s, b);
            expectSameBlock(b, refSlots[s],
                            what + " slot " + std::to_string(s));
        }
        EXPECT_EQ(storage.auditOccupancy(), "") << what;

        // A flush writes exactly the prefix, in slot order.
        events.clear();
        record(storage, events);
        storage.flush();
        storage.setAccessSink(nullptr);
        ASSERT_EQ(events.size(), top) << what;
        for (std::uint64_t s = 0; s < top; ++s)
            EXPECT_TRUE(events[s] == (Event{s, true})) << what;
        run = EngineRun{};

        // Below the prefix the file is the reference's, epochs too
        // (flushes write only the prefix, so this is also the state
        // before them). The prefix decodes the same (checked above);
        // only the two flushes advanced its epochs, all alike.
        const AtRest rest = readAtRest(path, slots, recBytes);
        EXPECT_TRUE(std::equal(rest.records.begin() + top * recBytes,
                               rest.records.end(),
                               refRest.records.begin() + top * recBytes))
            << what;
        EXPECT_TRUE(std::equal(rest.epochs.begin() + top, rest.epochs.end(),
                               refRest.epochs.begin() + top))
            << what;
        for (std::uint64_t s = 0; s < top; ++s)
            ASSERT_EQ(rest.epochs[s], rest.epochs[0]) << what;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Treetop, TreetopEngines,
    ::testing::Values(Kind::Laoram, Kind::PathOram, Kind::ProOram,
                      Kind::Recursive),
    [](const ::testing::TestParamInfo<Kind> &i) {
        return kindName(i.param);
    });

/** Random write ops over @p slots slots, prefix slots interleaved. */
std::vector<ServerStorage::SlotWriteOp>
randomOps(Rng &rng, const oram::TreeGeometry &geom, std::size_t n,
          std::vector<std::vector<std::uint8_t>> &payloads)
{
    std::vector<ServerStorage::SlotWriteOp> ops(n);
    payloads.assign(n, std::vector<std::uint8_t>(24));
    for (std::size_t i = 0; i < n; ++i) {
        ops[i].slot = rng.nextBounded(geom.totalSlots());
        if (rng.nextBounded(3) == 0)
            continue; // dummy
        ops[i].id = rng.nextBounded(1u << 20);
        ops[i].leaf = rng.nextBounded(geom.numLeaves());
        for (std::uint8_t &byte : payloads[i])
            byte = static_cast<std::uint8_t>(rng.nextBounded(256));
        ops[i].payload = payloads[i].data();
        ops[i].len = payloads[i].size();
    }
    return ops;
}

TEST(Treetop, CodecMatchesWholeTreeStorageInAnySlotOrder)
{
    // A uniform tree has one shape at every k, so the split storage
    // and the whole-tree one hold the same slots.
    const oram::TreeGeometry geom(256, 64, oram::BucketProfile::uniform(4));
    const oram::TreeGeometry wholeGeom(256, 64,
                                       oram::BucketProfile::uniform(4), 0);
    const unsigned k = geom.treetopLevels();
    ASSERT_GT(k, 0u);
    ServerStorage whole(wholeGeom, 24, true, 5);
    ServerStorage split(geom, 24, true, 5);
    ASSERT_EQ(split.treetopSlots(), geom.levelFirstSlot(k));
    std::vector<Event> wholeEvents, splitEvents;
    record(whole, wholeEvents);
    record(split, splitEvents);

    Rng rng(12);
    std::vector<std::vector<std::uint8_t>> payloads;
    std::vector<StoredBlock> a, b;
    for (int round = 0; round < 200; ++round) {
        const auto ops = randomOps(rng, geom, 1 + rng.nextBounded(40),
                                   payloads);
        whole.writeSlots(ops.data(), ops.size());
        split.writeSlots(ops.data(), ops.size());
        // Reads in arbitrary order: prefix first, last or mixed.
        std::vector<std::uint64_t> req;
        for (std::uint64_t n = 1 + rng.nextBounded(60); n > 0; --n)
            req.push_back(rng.nextBounded(geom.totalSlots()));
        if (round % 3 == 0)
            std::sort(req.begin(), req.end());
        else if (round % 3 == 1)
            std::sort(req.rbegin(), req.rend());
        whole.readSlots(req.data(), req.size(), a);
        split.readSlots(req.data(), req.size(), b);
        for (std::size_t i = 0; i < req.size(); ++i)
            expectSameBlock(a[i], b[i],
                            "round " + std::to_string(round) + " slot "
                                + std::to_string(req[i]));
    }
    for (std::uint64_t s = 0; s < geom.totalSlots(); ++s)
        ASSERT_EQ(whole.occupied(s), split.occupied(s)) << "slot " << s;

    std::vector<Event> filtered;
    for (const Event &e : wholeEvents)
        if (e.slot >= split.treetopSlots())
            filtered.push_back(e);
    EXPECT_TRUE(splitEvents == filtered);
    EXPECT_EQ(split.auditOccupancy(), "");
    whole.setAccessSink(nullptr);
    split.setAccessSink(nullptr);
}

/** Each leaf's path slots, deepest level first (PathIo's order). */
std::vector<std::uint64_t>
pathSlots(const oram::TreeGeometry &geom, Leaf leaf)
{
    std::vector<std::uint64_t> slots;
    for (unsigned level = geom.numLevels(); level-- > 0;) {
        const std::uint64_t base =
            geom.nodeSlotBase(geom.pathNode(leaf, level));
        for (std::uint64_t s = 0; s < geom.bucketSize(level); ++s)
            slots.push_back(base + s);
    }
    return slots;
}

TEST(Treetop, ReopenLoadsPrefixAndBitmap)
{
    // A uniform tree has one shape at every k, so its file reopens
    // under a geometry with any other treetop.
    const test::ScratchDir scratch;
    const oram::TreeGeometry geom(512, 64, oram::BucketProfile::uniform(4));
    const unsigned k = geom.treetopLevels();
    ASSERT_GT(k, 0u);
    storage::StorageConfig sc;
    sc.kind = storage::BackendKind::MmapFile;
    sc.path = scratch.file("reopen.tree");

    std::vector<bool> bits(geom.totalSlots());
    std::vector<StoredBlock> contents(geom.totalSlots());
    std::vector<std::vector<StoredBlock>> paths(geom.numLeaves());
    {
        ServerStorage s(geom, 24, true, 8, sc);
        ASSERT_FALSE(s.reopened());
        Rng rng(4);
        std::vector<std::vector<std::uint8_t>> payloads;
        for (int round = 0; round < 100; ++round) {
            const auto ops = randomOps(rng, geom, 64, payloads);
            s.writeSlots(ops.data(), ops.size());
        }
        for (std::uint64_t slot = 0; slot < geom.totalSlots(); ++slot) {
            bits[slot] = s.occupied(slot);
            s.readSlot(slot, contents[slot]);
        }
        for (Leaf leaf = 0; leaf < geom.numLeaves(); ++leaf) {
            const auto slots = pathSlots(geom, leaf);
            s.readSlots(slots.data(), slots.size(), paths[leaf]);
        }
        s.flush();
    }

    // The same k, none, and every level but the leaves: the tree
    // file does not depend on how many levels the storage keeps in
    // client memory.
    for (const unsigned reopenK : {k, 0u, geom.leafLevel()}) {
        const std::string what = "reopened at k " + std::to_string(reopenK);
        const oram::TreeGeometry at(512, 64,
                                    oram::BucketProfile::uniform(4),
                                    reopenK);
        ASSERT_EQ(at.totalSlots(), geom.totalSlots());
        sc.keepExisting = true;
        ServerStorage s(at, 24, true, 8, sc);
        ASSERT_TRUE(s.reopened()) << what;
        EXPECT_EQ(s.auditOccupancy(), "") << what;
        StoredBlock b;
        for (std::uint64_t slot = 0; slot < geom.totalSlots(); ++slot) {
            ASSERT_EQ(s.occupied(slot), bits[slot])
                << what << " slot " << slot;
            s.readSlot(slot, b);
            expectSameBlock(b, contents[slot],
                            what + " slot " + std::to_string(slot));
        }
        std::vector<StoredBlock> got;
        for (Leaf leaf = 0; leaf < geom.numLeaves(); ++leaf) {
            const auto slots = pathSlots(geom, leaf);
            s.readSlots(slots.data(), slots.size(), got);
            ASSERT_EQ(got.size(), paths[leaf].size());
            for (std::size_t i = 0; i < got.size(); ++i)
                expectSameBlock(got[i], paths[leaf][i],
                                what + " leaf " + std::to_string(leaf));
        }
    }
}

TEST(Treetop, FatTreeReopenedAtAnotherKIsRefused)
{
    // A fat profile's slot layout depends on k, so a tree written at
    // the default k cannot be served at another: the reopen fails
    // and says why.
    const test::ScratchDir scratch;
    storage::StorageConfig sc;
    sc.kind = storage::BackendKind::MmapFile;
    sc.path = scratch.file("fat.tree");
    const oram::TreeGeometry written(512, 64, oram::BucketProfile::fat(4));
    ASSERT_GT(written.treetopLevels(), 0u);
    {
        ServerStorage s(written, 24, true, 8, sc);
        s.flush();
    }
    sc.keepExisting = true;
    for (const unsigned k : {0u, written.treetopLevels() - 1}) {
        const oram::TreeGeometry other(512, 64,
                                       oram::BucketProfile::fat(4), k);
        ASSERT_NE(other.totalSlots(), written.totalSlots());
        try {
            ServerStorage s(other, 24, true, 8, sc);
            ADD_FAILURE() << "reopen at k " << k << " was not refused";
        } catch (const storage::ShapeMismatch &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("treetopLevels = " + std::to_string(k)),
                      std::string::npos)
                << what;
        }
    }
    // At the k it was written with it reopens.
    {
        ServerStorage s(written, 24, true, 8, sc);
        EXPECT_TRUE(s.reopened());
        EXPECT_EQ(s.auditOccupancy(), "");
    }
    // A refusal that is not about the tree's size (here a forged
    // header magic) says nothing about k.
    {
        std::fstream f(sc.path,
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f);
        char first = 0;
        f.read(&first, 1);
        f.seekp(0);
        first = static_cast<char>(first ^ 0xFF);
        f.write(&first, 1);
    }
    try {
        ServerStorage s(written, 24, true, 8, sc);
        ADD_FAILURE() << "forged header was not refused";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_EQ(what.find("treetopLevels"), std::string::npos) << what;
    }
}

TEST(Treetop, FlushWritesCanonicalDummiesOverTheWideTop)
{
    const test::ScratchDir scratch;
    const oram::TreeGeometry geom(512, 64, oram::BucketProfile::fat(4));
    constexpr std::uint64_t kPayload = 24;
    constexpr std::uint64_t kKeySeed = 8;
    storage::StorageConfig sc;
    sc.kind = storage::BackendKind::MmapFile;
    sc.path = scratch.file("dummies.tree");
    std::uint64_t top = 0;
    std::vector<bool> real;
    {
        ServerStorage s(geom, kPayload, true, kKeySeed, sc);
        top = s.treetopSlots();
        ASSERT_EQ(top, geom.levelFirstSlot(geom.treetopLevels()));
        // Fill every prefix slot with a real record, then move two in
        // three of them out again: those keep a stale leaf and
        // payload in client memory under a dummy id header.
        std::vector<std::uint8_t> payload(kPayload, 0xAB);
        std::vector<ServerStorage::SlotWriteOp> ops;
        for (std::uint64_t slot = 0; slot < top; ++slot)
            ops.push_back({slot, slot + 1, slot % geom.numLeaves(),
                           payload.data(), payload.size()});
        s.writeSlots(ops.data(), ops.size());
        ops.clear();
        for (std::uint64_t slot = 0; slot < top; ++slot)
            if (slot % 3 != 0)
                ops.push_back({slot, oram::kInvalidBlock, 0, nullptr, 0});
        s.writeSlots(ops.data(), ops.size());
        EXPECT_EQ(s.auditOccupancy(), "");
        StoredBlock b;
        for (std::uint64_t slot = 0; slot < top; ++slot) {
            real.push_back(s.occupied(slot));
            ASSERT_EQ(real.back(), slot % 3 == 0) << "slot " << slot;
            s.readSlot(slot, b);
            EXPECT_EQ(b.isDummy(), !real.back()) << "slot " << slot;
        }
        s.flush();
    }

    const AtRest rest =
        readAtRest(sc.path, geom.totalSlots(), 16 + kPayload);
    crypto::Encryptor enc(crypto::Encryptor::deriveKey(kKeySeed),
                          geom.totalSlots());
    enc.restoreEpochs(rest.epochs.data(), geom.totalSlots());
    std::vector<std::uint8_t> dummy(16 + kPayload, 0);
    const BlockId invalid = oram::kInvalidBlock;
    std::memcpy(dummy.data(), &invalid, sizeof(invalid));
    for (std::uint64_t slot = 0; slot < top; ++slot) {
        std::vector<std::uint8_t> rec(
            rest.records.begin() + slot * dummy.size(),
            rest.records.begin() + (slot + 1) * dummy.size());
        enc.decryptSlot(slot, rec.data(), rec.size());
        if (real[slot]) {
            BlockId id = 0;
            std::memcpy(&id, rec.data(), sizeof(id));
            EXPECT_EQ(id, slot + 1) << "slot " << slot;
        } else {
            EXPECT_EQ(rec, dummy) << "slot " << slot;
        }
    }
}

TEST(Treetop, WideTopHoldsWholeHorizonStash)
{
    // A Kaggle-like stream over 16 Ki rows, eight epochs, linked over
    // the whole stream: the shape whose stash grew once cross-window
    // links arrived. The wide trusted top absorbs it; §V's linear fat
    // tree at k = 0 does not.
    workload::KaggleParams kp;
    kp.numBlocks = 16384;
    kp.accesses = 8 * kp.numBlocks;
    kp.hotSetSize = 2048;
    kp.seed = 1;
    const std::vector<BlockId> trace = workload::makeKaggleTrace(kp).accesses;

    const auto run = [&](unsigned k) {
        core::LaoramConfig cfg;
        cfg.base.numBlocks = kp.numBlocks;
        cfg.base.blockBytes = 128;
        cfg.base.profile = oram::BucketProfile::fat(4);
        cfg.base.treetopLevels = k;
        cfg.superblockSize = 4;
        cfg.lookaheadWindow = 2048;
        cfg.batchAccesses = 16;
        auto engine = std::make_unique<core::Laoram>(cfg);
        engine->runTrace(trace);
        return engine;
    };

    const auto wide = run(oram::kAutoTreetop);
    ASSERT_EQ(wide->geometry().treetopLevels(), 7u);
    const mem::TrafficCounters &w = wide->meter().counters();
    EXPECT_LE(w.stashPeak, 16u);
    EXPECT_EQ(wide->stashSize(), 0u);
    EXPECT_EQ(w.dummyReads, 0u);

    const auto linear = run(0);
    const mem::TrafficCounters &l = linear->meter().counters();
    EXPECT_EQ(l.pathReads, w.pathReads);
    EXPECT_GT(l.stashPeak, 8 * w.stashPeak);
    EXPECT_GT(linear->stashSize(), 0u);
}

TEST(Treetop, KillRestoreAtDefaultK)
{
    // A LAORAM run killed at a window boundary and restored over the
    // reopened tree finishes byte-identically to one that never died,
    // with the treetop on: the checkpoint's flush carried the prefix
    // to the tree file and the reopen loaded it back.
    constexpr std::uint64_t kWindow = 24;
    constexpr std::uint64_t kWindows = 6;
    const test::ScratchDir scratch;
    const std::string tree = scratch.file("kill.tree");
    const std::string sidecar = scratch.file("kill.ckpt");

    core::LaoramConfig cfg;
    cfg.base.numBlocks = 96;
    cfg.base.blockBytes = 64;
    cfg.base.payloadBytes = 32;
    cfg.base.encrypt = true;
    cfg.base.seed = 21;
    cfg.superblockSize = 4;
    cfg.lookaheadWindow = kWindow;
    // The victim's stream is the trace prefix: the same schedule as
    // the uninterrupted run only with links inside windows.
    cfg.lookaheadHorizon = 0;
    Rng rng(3);
    std::vector<BlockId> trace;
    for (std::uint64_t i = 0; i < kWindow * kWindows; ++i)
        trace.push_back(rng.nextBounded(cfg.base.numBlocks));
    const auto fill = [&](core::Laoram &engine) {
        std::vector<std::uint8_t> buf(cfg.base.payloadBytes);
        for (BlockId id = 0; id < cfg.base.numBlocks; ++id) {
            for (std::size_t i = 0; i < buf.size(); ++i)
                buf[i] = static_cast<std::uint8_t>(id * 131 + i * 7);
            engine.writeBlock(id, buf);
        }
    };
    const auto pipeline = [](std::uint64_t firstWindow = 0) {
        core::PipelineConfig pc;
        pc.windowAccesses = kWindow;
        pc.firstWindowIndex = firstWindow;
        return pc;
    };

    core::Laoram reference(cfg);
    ASSERT_GT(reference.storageForAudit().treetopLevels(), 0u);
    fill(reference);
    core::BatchPipeline(reference, pipeline()).run(trace);
    const core::EngineSnapshot snap = core::snapshotOf(reference);

    constexpr std::uint64_t cut = 2;
    {
        core::LaoramConfig vcfg = cfg;
        vcfg.base.storage.kind = storage::BackendKind::MmapFile;
        vcfg.base.storage.path = tree;
        core::Laoram victim(vcfg);
        fill(victim);
        core::BatchPipeline(victim, pipeline())
            .run(std::vector<BlockId>(trace.begin(),
                                      trace.begin() + cut * kWindow));
        victim.checkpointToFile(sidecar);
    }

    core::LaoramConfig rcfg = cfg;
    rcfg.base.storage.kind = storage::BackendKind::MmapFile;
    rcfg.base.storage.path = tree;
    rcfg.base.storage.keepExisting = true;
    rcfg.base.checkpoint.path = sidecar;
    rcfg.base.checkpoint.restore = true;
    core::Laoram restored(rcfg);
    EXPECT_EQ(oram::auditTree(restored.geometry(),
                              restored.storageForAudit(),
                              restored.stashForAudit(),
                              restored.posmapForAudit()),
              "");
    core::BatchPipeline(restored, pipeline(restored.windowsServed()))
        .run(std::vector<BlockId>(trace.begin() + cut * kWindow,
                                  trace.end()));
    core::expectMatchesSnapshot(snap, restored, "restored at default k");
}

/**
 * A backend decorator that adds every slot written through it to a
 * counter that outlives it, so a test can see what a storage's
 * destructor wrote.
 */
class CountingBackend final : public storage::SlotBackend
{
  public:
    CountingBackend(std::unique_ptr<storage::SlotBackend> inner,
                    std::uint64_t &written)
        : SlotBackend(inner->slots(), inner->recordBytes(), "counting"),
          inner(std::move(inner)), written(written)
    {
    }

    std::uint64_t residentBytes() const override
    {
        return inner->residentBytes();
    }
    bool persistent() const override { return inner->persistent(); }
    bool openedExisting() const override
    {
        return inner->openedExisting();
    }
    std::uint64_t metaCapacity() const override
    {
        return inner->metaCapacity();
    }
    void
    writeMeta(const std::uint8_t *src, std::uint64_t len) override
    {
        inner->writeMeta(src, len);
    }
    std::uint64_t
    readMeta(std::uint8_t *dst, std::uint64_t len) const override
    {
        return inner->readMeta(dst, len);
    }

  protected:
    void
    doReadSlots(const std::uint64_t *slots, std::size_t n,
                std::uint8_t *dst) override
    {
        inner->readSlots(slots, n, dst);
    }
    void
    doWriteSlots(const std::uint64_t *slots, std::size_t n,
                 const std::uint8_t *src) override
    {
        written += n;
        inner->writeSlots(slots, n, src);
    }
    void doFlush() override { inner->flush(); }

  private:
    std::unique_ptr<storage::SlotBackend> inner;
    std::uint64_t &written;
};

TEST(Treetop, TeardownWritesPrefixOnlyToPersistentStore)
{
    // A DRAM store dies with its storage, so the destructor's flush
    // skips the prefix write and issues no backend write at all; an
    // mmap store still gets every prefix slot, once.
    const test::ScratchDir scratch;
    const oram::TreeGeometry geom(512, 64, oram::BucketProfile::fat(4));
    for (const storage::BackendKind kind :
         {storage::BackendKind::Dram, storage::BackendKind::MmapFile}) {
        const bool persistent = kind == storage::BackendKind::MmapFile;
        storage::StorageConfig sc;
        sc.kind = kind;
        sc.path = scratch.file("teardown.tree");
        std::uint64_t written = 0;
        std::uint64_t beforeTeardown = 0;
        std::uint64_t prefix = 0;
        {
            auto inner = storage::makeBackend(
                sc, geom.totalSlots(), 16 + 24,
                geom.totalSlots() * sizeof(std::uint32_t)
                    + crypto::kKeyCheckBytes);
            ServerStorage s(
                geom, 24, true, 8,
                std::make_unique<CountingBackend>(std::move(inner),
                                                  written));
            prefix = s.treetopSlots();
            ASSERT_GT(prefix, 0u);
            Rng rng(6);
            std::vector<std::vector<std::uint8_t>> payloads;
            for (int round = 0; round < 20; ++round) {
                const auto ops = randomOps(rng, geom, 32, payloads);
                s.writeSlots(ops.data(), ops.size());
            }
            beforeTeardown = written;
        }
        EXPECT_EQ(written - beforeTeardown, persistent ? prefix : 0u)
            << (persistent ? "mmap" : "dram");
    }
}

} // namespace
} // namespace laoram
