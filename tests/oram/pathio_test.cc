/**
 * @file
 * PathIo tests: path reads absorb blocks, greedy write-back places
 * deepest-first (a single path is the one-leaf union), the meter is
 * charged for every path and dummy access, the dummy drain is
 * bounded, and the tree auditor catches corruption.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "mem/traffic_meter.hh"
#include "oram/evictor.hh"
#include "util/rng.hh"

namespace laoram::oram {
namespace {

struct PathIoFixture : public ::testing::Test
{
    PathIoFixture()
        : geom(64, 8, BucketProfile::uniform(4), 0),
          storage(geom, 8, false),
          rng(7),
          posmap(64, geom.numLeaves(), rng),
          io(geom, storage, stash, meter)
    {
    }

    /** One-leaf read; returns the slots read. */
    std::uint64_t readOne(Leaf leaf) { return io.readPaths(&leaf, 1); }

    /** One-leaf write-back; returns the slots written. */
    std::uint64_t writeOne(Leaf leaf) { return io.writePaths(&leaf, 1); }

    std::vector<std::uint8_t>
    payloadFor(BlockId id)
    {
        return std::vector<std::uint8_t>(8,
                                         static_cast<std::uint8_t>(id));
    }

    TreeGeometry geom;
    ServerStorage storage;
    Rng rng;
    PositionMap posmap;
    Stash stash;
    mem::TrafficMeter meter;
    PathIo io;
};

TEST_F(PathIoFixture, ReadEmptyPathAbsorbsNothing)
{
    EXPECT_EQ(readOne(0), geom.pathSlots());
    EXPECT_TRUE(stash.empty());
}

TEST_F(PathIoFixture, WriteThenReadRoundTripsBlock)
{
    const Leaf leaf = 5;
    posmap.set(1, leaf);
    stash.put(1, leaf, payloadFor(1));
    EXPECT_EQ(writeOne(leaf), geom.pathSlots());
    EXPECT_TRUE(stash.empty());

    EXPECT_EQ(readOne(leaf), geom.pathSlots());
    EXPECT_EQ(stash.size(), 1u);
    ASSERT_TRUE(stash.contains(1));
    EXPECT_EQ(stash.find(1)->leaf, leaf);
    EXPECT_EQ(stash.find(1)->payload, payloadFor(1));
}

TEST_F(PathIoFixture, BlockOnOwnLeafGoesToLeafBucket)
{
    // A block whose assigned leaf equals the written path should land
    // in the deepest (leaf) bucket.
    const Leaf leaf = 3;
    posmap.set(2, leaf);
    stash.put(2, leaf, payloadFor(2));
    writeOne(leaf);

    const NodeIndex leaf_node = geom.pathNode(leaf, geom.leafLevel());
    StoredBlock b;
    bool found = false;
    const std::uint64_t base = geom.nodeSlotBase(leaf_node);
    for (std::uint64_t s = 0; s < geom.bucketSize(geom.leafLevel());
         ++s) {
        storage.readSlot(base + s, b);
        if (!b.isDummy() && b.id == 2)
            found = true;
    }
    EXPECT_TRUE(found) << "block should be placed at its own leaf";
}

TEST_F(PathIoFixture, DivergentBlockStaysNearRoot)
{
    // Block assigned to the opposite half of the tree can only share
    // the root with the written path.
    const Leaf block_leaf = 0;
    const Leaf write_leaf = geom.numLeaves() - 1;
    posmap.set(3, block_leaf);
    stash.put(3, block_leaf, payloadFor(3));
    writeOne(write_leaf);
    EXPECT_TRUE(stash.empty()) << "root must have had space";

    StoredBlock b;
    bool in_root = false;
    for (std::uint64_t s = 0; s < geom.bucketSize(0); ++s) {
        storage.readSlot(geom.nodeSlotBase(0) + s, b);
        if (!b.isDummy() && b.id == 3)
            in_root = true;
    }
    EXPECT_TRUE(in_root);
}

TEST_F(PathIoFixture, OverflowingBlocksStayInStash)
{
    // More same-leaf blocks than the path can hold: the surplus must
    // remain stashed, never dropped.
    const Leaf leaf = 9;
    const std::uint64_t capacity = geom.pathSlots();
    const std::uint64_t surplus = 5;
    for (BlockId id = 0; id < capacity + surplus; ++id) {
        if (id >= geom.numBlocks())
            break;
        posmap.set(id, leaf);
        stash.put(id, leaf, payloadFor(id));
    }
    const std::uint64_t staged = stash.size();
    EXPECT_EQ(writeOne(leaf), capacity);
    EXPECT_EQ(stash.size(), staged - std::min(staged, capacity));
}

TEST_F(PathIoFixture, WriteBackIgnoresStashInsertionOrder)
{
    // Two stashes with the same contents, built in opposite orders and
    // with different hash-map histories (the second one grew past its
    // contents first, as a stash that peaked does): a write-back with
    // more candidates than slots places the same block in every slot
    // and leaves the same blocks stashed. A checkpoint restores a stash
    // in id order, so this is what makes a restored run evict as the
    // original did.
    std::vector<std::pair<BlockId, Leaf>> blocks;
    for (BlockId id = 0; id < geom.numBlocks(); ++id)
        blocks.emplace_back(id, 8 + id % 4);

    ServerStorage otherStorage(geom, 8, false);
    Stash other;
    PathIo otherIo(geom, otherStorage, other, meter);
    for (BlockId id = 1000; id < 1600; ++id)
        other.remap(id, 0, 0);
    for (BlockId id = 1000; id < 1600; ++id)
        other.erase(id);
    for (const auto &[id, leaf] : blocks)
        stash.put(id, leaf, payloadFor(id));
    for (auto it = blocks.rbegin(); it != blocks.rend(); ++it)
        other.put(it->first, it->second, payloadFor(it->first));

    const Leaf leaves[] = {8, 11};
    io.writePaths(leaves, 2);
    otherIo.writePaths(leaves, 2);
    ASSERT_GT(stash.size(), 0u) << "no node had more candidates than slots";
    for (std::uint64_t slot = 0; slot < geom.totalSlots(); ++slot) {
        StoredBlock a;
        StoredBlock b;
        storage.readSlot(slot, a);
        otherStorage.readSlot(slot, b);
        ASSERT_EQ(a.id, b.id) << "slot " << slot;
    }
    ASSERT_EQ(stash.size(), other.size());
    for (const auto &[id, entry] : stash)
        EXPECT_TRUE(other.contains(id)) << "block " << id;
}

TEST_F(PathIoFixture, AuditPassesAfterRandomChurn)
{
    // Random accesses through raw PathIo keep the invariant.
    for (int round = 0; round < 200; ++round) {
        const BlockId id = rng.nextBounded(geom.numBlocks());
        const Leaf cur = posmap.get(id);
        readOne(cur);
        const Leaf next = rng.nextBounded(geom.numLeaves());
        posmap.set(id, next);
        if (StashEntry *e = stash.find(id))
            e->leaf = next;
        else
            stash.put(id, next, payloadFor(id));
        writeOne(cur);
    }
    EXPECT_EQ(auditTree(io, posmap), "");
}

TEST_F(PathIoFixture, AuditCatchesMisplacedBlock)
{
    // Plant a block on a node that is NOT on its mapped path.
    posmap.set(4, 0);
    const Leaf other = geom.numLeaves() - 1;
    const NodeIndex wrong = geom.pathNode(other, geom.leafLevel());
    auto payload = payloadFor(4);
    storage.writeSlot(geom.nodeSlotBase(wrong), 4, 0, payload.data(),
                      payload.size());
    EXPECT_NE(auditTree(io, posmap), "");
}

TEST_F(PathIoFixture, AuditCatchesStaleLeafField)
{
    posmap.set(6, 2);
    auto payload = payloadFor(6);
    // Stored leaf (7) disagrees with the position map (2).
    storage.writeSlot(geom.nodeSlotBase(0), 6, 7, payload.data(),
                      payload.size());
    EXPECT_NE(auditTree(io, posmap), "");
}

TEST_F(PathIoFixture, AuditCatchesTreeStashDuplicate)
{
    const Leaf leaf = 1;
    posmap.set(8, leaf);
    auto payload = payloadFor(8);
    storage.writeSlot(geom.nodeSlotBase(0), 8, leaf, payload.data(),
                      payload.size());
    stash.put(8, leaf, payloadFor(8));
    EXPECT_NE(auditTree(io, posmap), "");
}

TEST_F(PathIoFixture, FatTreePathHoldsMoreBlocks)
{
    TreeGeometry fat_geom(64, 8, BucketProfile::fat(4), 0);
    ServerStorage fat_storage(fat_geom, 8, false);
    Stash fat_stash;
    PathIo fat_io(fat_geom, fat_storage, fat_stash, meter);

    const Leaf leaf = 2;
    for (BlockId id = 0; id < fat_geom.pathSlots(); ++id) {
        if (id >= fat_geom.numBlocks())
            break;
        fat_stash.put(id, leaf, payloadFor(id));
    }
    const std::uint64_t staged = fat_stash.size();
    EXPECT_EQ(fat_io.writePaths(&leaf, 1), fat_geom.pathSlots());
    EXPECT_EQ(staged - fat_stash.size(),
              std::min<std::uint64_t>(staged, fat_geom.pathSlots()));
    EXPECT_GT(fat_geom.pathSlots(), geom.pathSlots());
}

TEST_F(PathIoFixture, BatchedUnionMatchesSortUniqueReference)
{
    // The batched union must visit exactly the nodes of the reference
    // construction (every path node, sorted, de-duplicated, reversed:
    // deepest level first, descending within a level) in that order,
    // for unsorted leaf multisets with duplicates, on both the read and
    // the write-back. A fat tree gives every level its own bucket size.
    TreeGeometry fat(256, 8, BucketProfile::fat(4), 0);
    ServerStorage store(fat, 0, false);
    Stash st;
    PathIo pio(fat, store, st, meter);
    std::vector<std::pair<std::uint64_t, bool>> log;
    store.setAccessSink([&](std::uint64_t slot, bool write) {
        log.emplace_back(slot, write);
    });

    auto reference = [&](const std::vector<Leaf> &leaves) {
        std::vector<NodeIndex> nodes;
        for (Leaf leaf : leaves)
            for (unsigned level = 0; level < fat.numLevels(); ++level)
                nodes.push_back(fat.pathNode(leaf, level));
        std::sort(nodes.begin(), nodes.end());
        nodes.erase(std::unique(nodes.begin(), nodes.end()),
                    nodes.end());
        std::reverse(nodes.begin(), nodes.end());
        std::vector<std::pair<std::uint64_t, bool>> slots;
        for (NodeIndex node : nodes) {
            const std::uint64_t base = fat.nodeSlotBase(node);
            const std::uint64_t z = fat.bucketSize(fat.nodeLevel(node));
            for (std::uint64_t s = 0; s < z; ++s)
                slots.emplace_back(base + s, false);
        }
        return slots;
    };
    auto randomLeaves = [&](std::uint64_t domain) {
        std::vector<Leaf> leaves(1 + rng.nextBounded(16));
        for (Leaf &leaf : leaves)
            leaf = rng.nextBounded(domain);
        return leaves;
    };

    for (int round = 0; round < 300; ++round) {
        // A narrow leaf domain every third round forces duplicates.
        const std::uint64_t domain = round % 3 == 0 ? 4 : fat.numLeaves();
        const std::vector<Leaf> readLeaves = randomLeaves(domain);
        // Odd rounds write back a different set than they read, so
        // the cached union must follow the leaf set.
        const std::vector<Leaf> writeLeaves =
            round % 2 == 0 ? readLeaves : randomLeaves(domain);

        auto expect = reference(readLeaves);
        log.clear();
        ASSERT_EQ(pio.readPaths(readLeaves.data(), readLeaves.size()),
                  expect.size())
            << "round " << round;
        ASSERT_EQ(log, expect) << "round " << round;

        expect = reference(writeLeaves);
        for (auto &e : expect)
            e.second = true;
        log.clear();
        ASSERT_EQ(pio.writePaths(writeLeaves.data(), writeLeaves.size()),
                  expect.size())
            << "round " << round;
        ASSERT_EQ(log, expect) << "round " << round;
    }
}

/**
 * The per-path greedy planner the one-leaf union write-back replaced,
 * kept as a reference: bucket every unpinned stash block by the
 * deepest level of @p leaf's path its own path still shares, then
 * fill levels leaf-to-root, unplaced blocks spilling toward the root.
 * Returns the blocks placed at each level; @p left gets the blocks
 * that stay stashed (pinned ones included). The counts do not depend on spill order, so both
 * planners must agree on them.
 */
std::vector<std::uint64_t>
perPathGreedyCounts(const TreeGeometry &geom, const Stash &stash,
                    Leaf leaf, std::uint64_t &left)
{
    std::vector<std::vector<BlockId>> byLevel(geom.numLevels());
    std::uint64_t pinned = 0;
    for (const auto &[id, entry] : stash) {
        if (entry.pinned) {
            ++pinned;
            continue;
        }
        byLevel[geom.commonLevel(entry.leaf, leaf)].push_back(id);
    }
    std::vector<std::uint64_t> placed(geom.numLevels(), 0);
    std::vector<BlockId> pool;
    for (unsigned level = geom.numLevels(); level-- > 0;) {
        for (BlockId id : byLevel[level])
            pool.push_back(id);
        const std::uint64_t z = geom.bucketSize(level);
        while (placed[level] < z && !pool.empty()) {
            pool.pop_back();
            ++placed[level];
        }
    }
    left = pool.size() + pinned;
    return placed;
}

/** Real blocks stored at each level of @p leaf's path. */
std::vector<std::uint64_t>
storedCounts(const TreeGeometry &geom, const ServerStorage &storage,
             Leaf leaf)
{
    std::vector<std::uint64_t> counts(geom.numLevels(), 0);
    StoredBlock b;
    for (unsigned level = 0; level < geom.numLevels(); ++level) {
        const std::uint64_t base =
            geom.nodeSlotBase(geom.pathNode(leaf, level));
        for (std::uint64_t s = 0; s < geom.bucketSize(level); ++s) {
            storage.readSlot(base + s, b);
            counts[level] += !b.isDummy();
        }
    }
    return counts;
}

TEST_F(PathIoFixture, OneLeafWriteBackMatchesPerPathGreedyReference)
{
    // Random stashes (sometimes larger than a path, sometimes crowded
    // onto a few leaves, some entries pinned) on a uniform and a fat
    // tree: a one-leaf union write-back must leave the same number of
    // blocks at every level and in the stash as the per-path greedy.
    for (const BucketProfile &profile :
         {BucketProfile::uniform(4), BucketProfile::fat(4)}) {
        const TreeGeometry g(256, 8, profile, 0);
        for (int round = 0; round < 200; ++round) {
            ServerStorage store(g, 8, false);
            Stash st;
            mem::TrafficMeter m;
            PathIo pio(g, store, st, m);

            const std::uint64_t domain =
                round % 4 == 0 ? 4 : g.numLeaves();
            const std::uint64_t blocks =
                rng.nextBounded(2 * g.pathSlots() + 1);
            for (BlockId id = 0; id < blocks; ++id) {
                StashEntry &e =
                    st.put(id, rng.nextBounded(domain), payloadFor(id));
                e.pinned = rng.nextBounded(8) == 0;
            }
            const Leaf leaf = rng.nextBounded(domain);

            std::uint64_t left = 0;
            const std::vector<std::uint64_t> expect =
                perPathGreedyCounts(g, st, leaf, left);
            ASSERT_EQ(pio.writePaths(&leaf, 1), g.pathSlots());
            ASSERT_EQ(storedCounts(g, store, leaf), expect)
                << "round " << round;
            ASSERT_EQ(st.size(), left) << "round " << round;
        }
    }
}

TEST_F(PathIoFixture, MeterChargesOneLeafReadWriteAndDrain)
{
    const Leaf leaf = 6;
    readOne(leaf);
    mem::TrafficCounters c = meter.counters();
    EXPECT_EQ(c.pathReads, 1u);
    EXPECT_EQ(c.blocksRead, geom.pathSlots());
    EXPECT_EQ(c.bytesRead, geom.pathBytes());
    EXPECT_EQ(c.pathWrites, 0u);

    writeOne(leaf);
    c = meter.counters();
    EXPECT_EQ(c.pathWrites, 1u);
    EXPECT_EQ(c.blocksWritten, geom.pathSlots());
    EXPECT_EQ(c.bytesWritten, geom.pathBytes());

    // Exactly the arithmetic of a hand-charged single path.
    mem::TrafficMeter manual;
    manual.recordPathRead(geom.pathBytes(), geom.pathSlots());
    manual.recordPathWrite(geom.pathBytes(), geom.pathSlots());
    EXPECT_EQ(meter.clock().picoseconds(),
              manual.clock().picoseconds());

    // Below the high-water mark the drain issues nothing.
    for (BlockId id = 0; id < 3; ++id)
        stash.put(id, posmap.get(id), payloadFor(id));
    EXPECT_EQ(io.drain(rng, 3, 0), 0u);
    EXPECT_EQ(meter.counters().dummyReads, 0u);

    // Above it, every dummy access charges one full path each way.
    stash.put(3, posmap.get(3), payloadFor(3));
    const mem::TrafficCounters before = meter.counters();
    const std::uint64_t dummies = io.drain(rng, 3, 0);
    EXPECT_GT(dummies, 0u);
    EXPECT_TRUE(stash.empty());
    const mem::TrafficCounters d = meter.counters().since(before);
    EXPECT_EQ(d.dummyReads, dummies);
    EXPECT_EQ(d.pathReads, 0u);
    EXPECT_EQ(d.pathWrites, 0u);
    EXPECT_EQ(d.blocksRead, dummies * geom.pathSlots());
    EXPECT_EQ(d.blocksWritten, dummies * geom.pathSlots());
    EXPECT_EQ(d.bytesRead, dummies * geom.pathBytes());
    EXPECT_EQ(d.bytesWritten, dummies * geom.pathBytes());
    EXPECT_EQ(auditTree(io, posmap), "");
}

TEST_F(PathIoFixture, DrainStopsAtBurstCap)
{
    // More real blocks than the whole tree has slots: the stash can
    // never reach a low water of 0, so the drain must give up after
    // exactly the cap, keep the overflow stashed and leave the tree
    // consistent.
    const TreeGeometry g(8, 8, BucketProfile::uniform(4), 0);
    ASSERT_EQ(g.numLeaves(), 8u);
    ServerStorage store(g, 8, false);
    Stash st;
    mem::TrafficMeter m;
    PathIo pio(g, store, st, m);
    Rng r(3);
    PositionMap pm(100, g.numLeaves(), r);
    for (BlockId id = 0; id < 100; ++id)
        st.put(id, pm.get(id), payloadFor(id));
    const std::uint64_t treeSlots = g.numNodes() * 4;
    ASSERT_LT(treeSlots, 100u);

    EXPECT_EQ(pio.drain(r, 0, 0), PathIo::kMaxDummiesPerBurst);
    EXPECT_EQ(m.counters().dummyReads, PathIo::kMaxDummiesPerBurst);
    EXPECT_GE(st.size(), 100 - treeSlots);
    EXPECT_EQ(auditTree(pio, pm), "");
}

TEST_F(PathIoFixture, DrainThatGaveUpWaitsForTheStashToGrow)
{
    // 40 blocks on one leaf whose path holds 28: at least 12 stay
    // stashed whatever the dummies do, since dummies never remap.
    const Leaf leaf = 5;
    const std::uint64_t blocks = 40;
    ASSERT_LT(geom.pathSlots(), blocks);
    for (BlockId id = 0; id < blocks; ++id) {
        posmap.set(id, leaf);
        stash.put(id, leaf, payloadFor(id));
    }
    EXPECT_EQ(io.drain(rng, 8, 2), PathIo::kMaxDummiesPerBurst);
    EXPECT_EQ(stash.size(), blocks - geom.pathSlots());

    // At the stash size the burst gave up at, a second drain would
    // only give up again: it issues nothing.
    const std::uint64_t before = meter.counters().dummyReads;
    EXPECT_EQ(io.drain(rng, 8, 2), 0u);
    EXPECT_EQ(meter.counters().dummyReads, before);

    // Once the stash grows past that size, a burst drains it back to
    // that size instead of chasing the low water through the cap.
    const Leaf other = geom.numLeaves() - 1;
    posmap.set(blocks, other);
    stash.put(blocks, other, payloadFor(blocks));
    EXPECT_LT(io.drain(rng, 8, 2), PathIo::kMaxDummiesPerBurst);
    EXPECT_EQ(stash.size(), blocks - geom.pathSlots());
    EXPECT_EQ(auditTree(io, posmap), "");

    // Real accesses remap blocks away (here: dropped from the stash).
    // A drain that finds the stash at the low water forgets the
    // give-up, and the next burst aims at the low water again.
    std::vector<BlockId> stashed;
    for (const auto &[id, entry] : stash)
        stashed.push_back(id);
    for (BlockId id : stashed)
        stash.erase(id);
    EXPECT_EQ(io.drain(rng, 8, 2), 0u);
    for (BlockId id = 0; id < 9; ++id) {
        const BlockId fresh = blocks + 1 + id;
        posmap.set(fresh, id * 7);
        stash.put(fresh, id * 7, payloadFor(fresh));
    }
    EXPECT_GT(io.drain(rng, 8, 2), 0u);
    EXPECT_LE(stash.size(), 2u);
}

/** A tree with the default treetop whose top slots hold blocks. */
struct PathIoTreetop : public ::testing::Test
{
    PathIoTreetop()
        : geom(64, 8, BucketProfile::uniform(4)),
          storage(geom, 8, false),
          io(geom, storage, stash, meter),
          rng(5),
          posmap(65, geom.numLeaves(), rng)
    {
        // Sixteen blocks on each of two leaves fill their paths up
        // into the top.
        for (BlockId id = 0; id < 32; ++id) {
            posmap.set(id, id % 2);
            stash.put(id, id % 2, std::vector<std::uint8_t>(8, id));
        }
        io.readPaths(leaves, 2);
        io.writePaths(leaves, 2);
    }

    /** The first occupied treetop slot. */
    std::uint64_t
    firstHeldSlot() const
    {
        const auto &top = io.topSlots();
        return std::find_if(top.begin(), top.end(),
                            [](const Stash::Node &n) { return !n.empty(); })
            - top.begin();
    }

    const Leaf leaves[2] = {0, 1};
    const TreeGeometry geom;
    ServerStorage storage;
    Stash stash;
    mem::TrafficMeter meter;
    PathIo io;
    Rng rng;
    PositionMap posmap;
};

TEST_F(PathIoTreetop, AuditChecksParkedBlocks)
{
    // Over a treetop the write-back puts blocks in the top slots. The
    // audit accepts that, and catches a top block whose leaf
    // disagrees with the position map.
    ASSERT_GT(geom.treetopLevels(), 0u);
    const std::uint64_t slot = firstHeldSlot();
    ASSERT_LT(slot, io.topSlots().size());
    EXPECT_EQ(auditTree(io, posmap), "");

    const BlockId held = io.topSlots()[slot].key();
    const Leaf home = posmap.get(held);
    posmap.set(held, home ^ 1);
    EXPECT_NE(auditTree(io, posmap).find("posmap leaf"), std::string::npos);
    posmap.set(held, home);
    EXPECT_EQ(auditTree(io, posmap), "");
}

TEST_F(PathIoTreetop, TopBlockKeepsItsPayloadAcrossAnAccess)
{
    // A read gives a top block back to the stash and the write-back
    // returns it to the same slot, its payload never copied.
    const std::uint64_t slot = firstHeldSlot();
    ASSERT_LT(slot, io.topSlots().size());
    const BlockId held = io.topSlots()[slot].key();
    const std::uint8_t *bytes = io.topSlots()[slot].mapped().payload.data();

    io.readPaths(leaves, 2);
    EXPECT_TRUE(io.topSlots()[slot].empty());
    ASSERT_TRUE(stash.contains(held));
    EXPECT_EQ(stash.find(held)->payload.data(), bytes);

    io.writePaths(leaves, 2);
    EXPECT_FALSE(stash.contains(held));
    ASSERT_FALSE(io.topSlots()[slot].empty());
    EXPECT_EQ(io.topSlots()[slot].key(), held);
    EXPECT_EQ(io.topSlots()[slot].mapped().payload.data(), bytes);
    EXPECT_EQ(auditTree(io, posmap), "");
}

TEST_F(PathIoTreetop, RestoreRefusesABlockHeldTwice)
{
    // A snapshot whose treetop slot holds a block the stash holds too
    // (or another slot does) is refused by name; one that holds it
    // once restores it into the slot.
    const auto snapshot = [&](BlockId stashed, BlockId slot0,
                              BlockId slot1) {
        serde::Serializer s;
        s.u64(1); // stash: one entry
        s.u64(stashed);
        StashEntry{3, false, {1}}.save(s);
        s.u64(0); // PathIo: drain memory, then the slot table
        s.u64(io.topSlots().size());
        for (std::uint64_t t = 0; t < io.topSlots().size(); ++t) {
            const BlockId id = t == 0 ? slot0 : t == 1 ? slot1
                                                       : kInvalidBlock;
            s.u64(id);
            if (id != kInvalidBlock)
                StashEntry{3, false, {2}}.save(s);
        }
        return s.data();
    };
    const auto restore = [&](const std::vector<std::uint8_t> &bytes) {
        serde::Deserializer d(bytes);
        stash.restore(d);
        io.restore(d);
        EXPECT_TRUE(d.atEnd());
    };

    for (const auto &[slot0, slot1] :
         {std::pair<BlockId, BlockId>{7, kInvalidBlock}, {8, 8}}) {
        try {
            restore(snapshot(7, slot0, slot1));
            ADD_FAILURE() << "block " << slot0 << " held twice restored";
        } catch (const serde::SnapshotError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "block " + std::to_string(slot0) + " twice"),
                      std::string::npos)
                << e.what();
        }
    }

    restore(snapshot(7, 8, kInvalidBlock));
    EXPECT_EQ(stash.size(), 1u);
    EXPECT_FALSE(stash.contains(8));
    ASSERT_FALSE(io.topSlots()[0].empty());
    EXPECT_EQ(io.topSlots()[0].key(), 8u);
    EXPECT_EQ(io.topSlots()[0].mapped().payload,
              std::vector<std::uint8_t>{2});
    for (std::uint64_t t = 1; t < io.topSlots().size(); ++t)
        EXPECT_TRUE(io.topSlots()[t].empty()) << t;
}

} // namespace
} // namespace laoram::oram
