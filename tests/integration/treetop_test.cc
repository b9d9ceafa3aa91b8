/**
 * @file
 * Treetop differential suite: keeping the top k tree levels in client
 * memory (parked stash entries in PathIo's treetop slots) must change
 * what reaches the server and nothing else.
 *
 *  - Engines: the same trace through LAORAM (encrypted 128-B rows,
 *    mmap), PathORAM, PrORAM and recursive PathORAM at k in
 *    {0, 1, auto, L} gives the k = 0 run's adversary stream with the
 *    prefix slots filtered out, the same logical state, the same
 *    block in every slot (a parked entry in a treetop slot, a decoded
 *    record below) and the same at-rest bytes and epochs below the
 *    prefix. Every leg has a uniform profile, whose tree is the same
 *    at every k (a fat tree's top widens with k, so it has no k = 0
 *    twin).
 *  - Backend: after construction no run, checkpoint or teardown
 *    reads or writes a treetop slot; the tree file's top region stays
 *    a fresh tree's.
 *  - Reopen: a fat tree written at one k is refused at another, by
 *    name, while a forged header is refused without that hint; a
 *    snapshot taken at one k is refused at another, by name.
 *  - Kill/restore: a LAORAM run killed at a window boundary at the
 *    default k finishes byte-identically to an uninterrupted one.
 *  - Stash: over a whole-horizon Kaggle-like run the wide top keeps
 *    the stash small and empties it, where §V's linear fat tree at
 *    k = 0 lets it grow.
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
#include "util/serde.hh"
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
    const oram::Stash *stash = nullptr;
    const oram::PathIo *io = nullptr;
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
        run.stash = &e->stashForAudit();
        run.io = &e->pathIoForAudit();
        run.posOf = [p = e.get()](BlockId id) {
            return p->posmapForAudit().get(id);
        };
        run.engine = std::move(e);
        break;
      }
      case Kind::PathOram: {
        auto e = std::make_unique<oram::PathOram>(cfg);
        run.storage = &e->storageForTest();
        run.stash = &e->stashForAudit();
        run.io = &e->pathIoForAudit();
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
        run.stash = &e->stashForAudit();
        run.io = &e->pathIoForAudit();
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
        run.stash = &e->stashForAudit();
        run.io = &e->pathIoForAudit();
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
    std::vector<Event> refEvents;
    record(*ref.storage, refEvents);
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
        const unsigned k = run.engine->geometry().treetopLevels();
        const std::uint64_t top = run.io->topSlotIds().size();
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
        drive(kind, *run.engine);

        // The server saw the reference stream minus the prefix.
        std::vector<Event> filtered;
        std::uint64_t prefixReads = 0;
        for (const Event &e : refEvents) {
            if (e.slot >= top)
                filtered.push_back(e);
            else if (!e.write)
                ++prefixReads;
        }
        EXPECT_EQ(events.size(), filtered.size()) << what;
        EXPECT_TRUE(events == filtered) << what;

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

        // Every slot holds the reference's block: a treetop slot as a
        // parked entry, a server slot as its decoded record.
        storage.setAccessSink(nullptr);
        StoredBlock b;
        for (std::uint64_t s = 0; s < slots; ++s) {
            const std::string at = what + " slot " + std::to_string(s);
            if (s >= top) {
                storage.readSlot(s, b);
                expectSameBlock(b, refSlots[s], at);
                continue;
            }
            b.id = run.io->topSlotIds()[s];
            ASSERT_EQ(b.id, refSlots[s].id) << at;
            if (b.isDummy())
                continue;
            const oram::StashEntry *parked = run.stash->findParked(b.id);
            ASSERT_NE(parked, nullptr) << at;
            EXPECT_EQ(parked->leaf, refSlots[s].leaf) << at;
            EXPECT_EQ(parked->payload, refSlots[s].payload) << at;
        }
        EXPECT_EQ(storage.auditOccupancy(), "") << what;
        run = EngineRun{};

        // Below the prefix the file is the reference's, epochs too.
        // The prefix was written only by the fresh tree's init, all
        // alike.
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
    // with the treetop on: the snapshot carried the parked entries and
    // the treetop slot table.
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
    ASSERT_GT(reference.geometry().treetopLevels(), 0u);
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
    EXPECT_EQ(oram::auditTree(restored.pathIoForAudit(),
                              restored.posmapForAudit()),
              "");
    core::BatchPipeline(restored, pipeline(restored.windowsServed()))
        .run(std::vector<BlockId>(trace.begin() + cut * kWindow,
                                  trace.end()));
    core::expectMatchesSnapshot(snap, restored, "restored at default k");
}

TEST(Treetop, BackendNeverSeesTheTop)
{
    // The treetop is client state: after construction no read or
    // write of a run, its checkpoint or the teardown reaches a slot
    // below levelFirstSlot(k). The sink sees the run and the
    // checkpoint; the tree file shows the teardown, since its top
    // region must still be exactly that of a tree only created and
    // torn down.
    const test::ScratchDir scratch;
    core::LaoramConfig cfg;
    cfg.base.numBlocks = 2048;
    cfg.base.blockBytes = 128;
    cfg.base.payloadBytes = 32;
    cfg.base.profile = oram::BucketProfile::fat(4);
    cfg.base.encrypt = true;
    cfg.base.storage.kind = storage::BackendKind::MmapFile;
    cfg.superblockSize = 4;
    cfg.lookaheadWindow = 512;
    cfg.batchAccesses = 16;
    const auto at = [&](const std::string &name) {
        core::LaoramConfig c = cfg;
        c.base.storage.path = scratch.file(name);
        return c;
    };
    {
        core::Laoram fresh(at("fresh.tree"));
    }

    std::vector<Event> events;
    std::uint64_t top = 0;
    std::uint64_t slots = 0;
    std::uint64_t recBytes = 0;
    {
        core::Laoram engine(at("run.tree"));
        const oram::TreeGeometry &geom = engine.geometry();
        ASSERT_GT(geom.treetopLevels(), 0u);
        top = geom.levelFirstSlot(geom.treetopLevels());
        slots = geom.totalSlots();
        recBytes = engine.storageForAudit().recordBytes();
        record(engine.storageForTest(), events);

        std::vector<std::uint8_t> row(cfg.base.payloadBytes);
        for (BlockId id = 0; id < cfg.base.numBlocks; id += 5) {
            row[0] = static_cast<std::uint8_t>(id);
            engine.writeBlock(id, row);
        }
        workload::KaggleParams kp;
        kp.numBlocks = cfg.base.numBlocks;
        kp.accesses = 4096;
        kp.hotSetSize = 256;
        kp.seed = 9;
        engine.runTrace(workload::makeKaggleTrace(kp).accesses);
        engine.checkpoint();
        EXPECT_GT(engine.stashForAudit().parkedSize(), 0u);
        EXPECT_EQ(oram::auditTree(engine.pathIoForAudit(),
                                  engine.posmapForAudit()),
                  "");
    }
    ASSERT_FALSE(events.empty());
    for (const Event &e : events)
        ASSERT_GE(e.slot, top) << (e.write ? "write" : "read");

    const AtRest fresh = readAtRest(scratch.file("fresh.tree"), slots,
                                    recBytes);
    const AtRest run = readAtRest(scratch.file("run.tree"), slots,
                                  recBytes);
    EXPECT_TRUE(std::equal(fresh.records.begin(),
                           fresh.records.begin() + top * recBytes,
                           run.records.begin()));
    EXPECT_TRUE(std::equal(fresh.epochs.begin(),
                           fresh.epochs.begin() + top,
                           run.epochs.begin()));
}

TEST(Treetop, SnapshotRestoredAtAnotherKIsRefused)
{
    // A uniform tree has one shape at every k, but a snapshot holds
    // the treetop of the k it was taken at: an engine with another k
    // refuses it, by name, and one with the same k restores it.
    EngineConfig cfg;
    cfg.numBlocks = 256;
    cfg.payloadBytes = 16;
    oram::PathOram taken(cfg);
    for (BlockId id = 0; id < cfg.numBlocks; ++id)
        taken.touch(id);
    ASSERT_GT(taken.stashForAudit().parkedSize(), 0u);
    const std::vector<std::uint8_t> blob = taken.checkpoint();
    const unsigned k = taken.geometry().treetopLevels();
    ASSERT_GT(k, 1u);

    for (const unsigned other : {0u, k - 1}) {
        EngineConfig atOther = cfg;
        atOther.treetopLevels = other;
        oram::PathOram restored(atOther);
        ASSERT_EQ(restored.geometry().totalSlots(),
                  taken.geometry().totalSlots());
        try {
            restored.restoreFrom(blob);
            ADD_FAILURE() << "restore at k " << other << " was accepted";
        } catch (const serde::SnapshotError &e) {
            EXPECT_NE(std::string(e.what()).find("treetopLevels"),
                      std::string::npos)
                << e.what();
        }
    }
    oram::PathOram same(cfg);
    same.restoreFrom(blob);
    EXPECT_EQ(same.stashForAudit().parkedSize(),
              taken.stashForAudit().parkedSize());
    EXPECT_EQ(same.pathIoForAudit().topSlotIds(),
              taken.pathIoForAudit().topSlotIds());
}

} // namespace
} // namespace laoram
