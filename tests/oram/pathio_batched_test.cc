/**
 * @file
 * Regression tests for the union-batched path I/O — the machinery
 * that makes multi-path superblock accesses correct. The scenario
 * that motivated it: two fetched paths share prefix nodes, and a
 * naive sequential write-back of path 2 then path 1 overwrites the
 * shared nodes populated by path 2's write, losing blocks.
 */

#include <gtest/gtest.h>

#include <map>

#include "mem/traffic_meter.hh"
#include "oram/evictor.hh"
#include "util/rng.hh"

namespace laoram::oram {
namespace {

struct BatchedFixture : public ::testing::Test
{
    BatchedFixture()
        : geom(64, 8, BucketProfile::uniform(2), 0), // tight buckets
          storage(geom, 8, false),
          rng(13),
          posmap(64, geom.numLeaves(), rng),
          io(geom, storage, stash, meter)
    {
    }

    std::uint64_t
    readLeaves(const std::vector<Leaf> &leaves)
    {
        return io.readPaths(leaves.data(), leaves.size());
    }

    std::uint64_t
    writeLeaves(const std::vector<Leaf> &leaves)
    {
        return io.writePaths(leaves.data(), leaves.size());
    }

    std::vector<std::uint8_t>
    payloadFor(BlockId id)
    {
        return std::vector<std::uint8_t>(8,
                                         static_cast<std::uint8_t>(id));
    }

    /** Stage a block in the stash mapped to @p leaf. */
    void
    stage(BlockId id, Leaf leaf)
    {
        posmap.set(id, leaf);
        stash.put(id, leaf, payloadFor(id));
    }

    TreeGeometry geom;
    ServerStorage storage;
    Rng rng;
    PositionMap posmap;
    Stash stash;
    mem::TrafficMeter meter;
    PathIo io;
};

TEST_F(BatchedFixture, UnionReadVisitsSharedNodesOnce)
{
    std::uint64_t slot_reads = 0;
    storage.setAccessSink([&](std::uint64_t, bool write) {
        if (!write)
            ++slot_reads;
    });
    // Sibling leaves share all levels but the last; a repeated leaf
    // adds nothing.
    readLeaves({0, 1, 0});
    const std::uint64_t z = 2;
    // Union: (L+1) + 1 nodes (only the leaf differs).
    const std::uint64_t expect =
        (geom.numLevels() + 1) * z;
    EXPECT_EQ(slot_reads, expect);
    // The meter counts distinct leaves and union slots.
    EXPECT_EQ(meter.counters().pathReads, 2u);
    EXPECT_EQ(meter.counters().blocksRead, expect);
    EXPECT_EQ(meter.counters().bytesRead, expect * geom.blockBytes());
}

TEST_F(BatchedFixture, UnionReadOfDisjointPathsVisitsBoth)
{
    std::uint64_t slot_reads = 0;
    storage.setAccessSink([&](std::uint64_t, bool write) {
        if (!write)
            ++slot_reads;
    });
    // Leaves in opposite halves share only the root.
    readLeaves({0, geom.numLeaves() - 1});
    const std::uint64_t z = 2;
    const std::uint64_t expect = (2 * geom.numLevels() - 1) * z;
    EXPECT_EQ(slot_reads, expect);
}

TEST_F(BatchedFixture, OverlappingWriteBackLosesNothing)
{
    // The motivating bug: blocks eligible only at shared prefix nodes
    // of two written paths must survive a batched write-back. Sibling
    // paths 0 and 1 share every node except the leaves; blocks homed
    // in the opposite tree half are eligible ONLY at the shared root.
    const Leaf left = 0;
    const Leaf right = 1;
    const Leaf elsewhere = geom.numLeaves() / 2;
    stage(1, elsewhere);
    stage(2, elsewhere ^ 1);

    writeLeaves({left, right});

    // Root Z=2: both blocks must be in the tree now (not lost, not
    // duplicated) — audit verifies global consistency.
    EXPECT_EQ(auditTree(io, posmap), "");
    std::uint64_t in_tree = 0;
    StoredBlock b;
    for (std::uint64_t s = 0; s < geom.bucketSize(0); ++s) {
        storage.readSlot(geom.nodeSlotBase(0) + s, b);
        in_tree += !b.isDummy();
    }
    EXPECT_EQ(in_tree + stash.size(), 2u);
    EXPECT_EQ(in_tree, 2u) << "root had capacity for both";
}

TEST_F(BatchedFixture, RandomBatchesPreserveEveryBlock)
{
    // Differential test: run random batched read/write rounds and
    // check no block is ever lost or duplicated.
    std::map<BlockId, bool> live;
    for (int round = 0; round < 120; ++round) {
        // Stage up to 4 fresh blocks on random leaves.
        for (int i = 0; i < 4; ++i) {
            const BlockId id = rng.nextBounded(64);
            if (live.count(id))
                continue;
            const Leaf leaf = rng.nextBounded(geom.numLeaves());
            if (stash.contains(id))
                continue;
            // Only stage blocks not currently in the tree.
            bool in_tree = false;
            StoredBlock b;
            for (NodeIndex n = 0; n < geom.numNodes() && !in_tree;
                 ++n) {
                const auto base = geom.nodeSlotBase(n);
                const auto z = geom.bucketSize(geom.nodeLevel(n));
                for (std::uint64_t s = 0; s < z; ++s) {
                    storage.readSlot(base + s, b);
                    if (!b.isDummy() && b.id == id)
                        in_tree = true;
                }
            }
            if (in_tree)
                continue;
            stage(id, leaf);
            live[id] = true;
        }
        // Random batch of 1-3 paths: read then write.
        std::vector<Leaf> leaves;
        const int k = 1 + static_cast<int>(rng.nextBounded(3));
        for (int i = 0; i < k; ++i)
            leaves.push_back(rng.nextBounded(geom.numLeaves()));
        readLeaves(leaves);
        writeLeaves(leaves);

        ASSERT_EQ(auditTree(io, posmap), "")
            << "round " << round;
    }
    // Every staged block is accounted for: in tree or stash.
    std::map<BlockId, int> found;
    StoredBlock b;
    for (NodeIndex n = 0; n < geom.numNodes(); ++n) {
        const auto base = geom.nodeSlotBase(n);
        const auto z = geom.bucketSize(geom.nodeLevel(n));
        for (std::uint64_t s = 0; s < z; ++s) {
            storage.readSlot(base + s, b);
            if (!b.isDummy())
                ++found[b.id];
        }
    }
    for (const auto &[id, entry] : stash)
        ++found[id];
    for (const auto &[id, alive] : live)
        EXPECT_EQ(found[id], 1) << "block " << id;
}

TEST_F(BatchedFixture, SingleLeafBatchedEqualsPlainWrite)
{
    // A one-leaf union is a plain path write: it writes exactly the
    // path's slots, places both blocks at their shared leaf bucket
    // (Z = 2) and charges one path write.
    stage(5, 3);
    stage(9, 3);
    const std::uint64_t slots = writeLeaves({3});
    EXPECT_EQ(slots, geom.pathSlots());
    EXPECT_TRUE(stash.empty());
    EXPECT_EQ(auditTree(io, posmap), "");
    StoredBlock b;
    std::uint64_t at_leaf = 0;
    const unsigned leaf_level = geom.leafLevel();
    const auto base = geom.nodeSlotBase(geom.pathNode(3, leaf_level));
    for (std::uint64_t s = 0; s < geom.bucketSize(leaf_level); ++s) {
        storage.readSlot(base + s, b);
        at_leaf += !b.isDummy();
    }
    EXPECT_EQ(at_leaf, 2u);
    EXPECT_EQ(meter.counters().pathWrites, 1u);
    EXPECT_EQ(meter.counters().blocksWritten, geom.pathSlots());
}

TEST_F(BatchedFixture, PinnedEntriesSurviveBatchedWrite)
{
    stage(7, 4);
    stash.find(7)->pinned = true;
    writeLeaves({4});
    EXPECT_TRUE(stash.contains(7)) << "pinned block must be retained";
    stash.find(7)->pinned = false;
    writeLeaves({4});
    EXPECT_FALSE(stash.contains(7));
}

TEST_F(BatchedFixture, PinnedEntriesSurvivePlainWrite)
{
    // A pinned block survives a one-leaf write-back even when its own
    // leaf bucket is on the path and empty.
    stage(8, 6);
    stash.find(8)->pinned = true;
    const Leaf leaf = 6;
    io.writePaths(&leaf, 1);
    EXPECT_TRUE(stash.contains(8));
    EXPECT_EQ(auditTree(io, posmap), "");
}

TEST_F(BatchedFixture, WriteBackPlacesAtDeepestUnionNode)
{
    // A block whose leaf IS one of the written paths must land in
    // that leaf's bucket, not at the shared root.
    const Leaf target = 5;
    stage(11, target);
    writeLeaves({target, target ^ 1});

    const NodeIndex leaf_node =
        geom.pathNode(target, geom.leafLevel());
    StoredBlock b;
    bool at_leaf = false;
    const auto base = geom.nodeSlotBase(leaf_node);
    for (std::uint64_t s = 0;
         s < geom.bucketSize(geom.leafLevel()); ++s) {
        storage.readSlot(base + s, b);
        at_leaf |= (!b.isDummy() && b.id == 11);
    }
    EXPECT_TRUE(at_leaf);
}

TEST_F(BatchedFixture, EmptyLeafSetTouchesNothing)
{
    stage(3, 5);
    stage(4, 9);
    std::uint64_t sunk = 0;
    storage.setAccessSink([&](std::uint64_t, bool) { ++sunk; });
    const storage::IoStats before = storage.ioStats();

    EXPECT_EQ(io.readPaths(nullptr, 0), 0u);
    EXPECT_EQ(io.writePaths(nullptr, 0), 0u);

    const storage::IoStats d = storage.ioStats().since(before);
    EXPECT_EQ(d.readOps, 0u);
    EXPECT_EQ(d.writeOps, 0u);
    EXPECT_EQ(d.slotsRead, 0u);
    EXPECT_EQ(d.slotsWritten, 0u);
    EXPECT_EQ(sunk, 0u);
    EXPECT_EQ(meter.counters().pathReads, 0u);
    EXPECT_EQ(meter.counters().pathWrites, 0u);
    EXPECT_EQ(stash.size(), 2u);
    EXPECT_TRUE(stash.contains(3));
    EXPECT_TRUE(stash.contains(4));
}

TEST(SlotNode, InvertsNodeSlotBase)
{
    TreeGeometry geom(256, 16, BucketProfile::linear(3, 7), 0);
    for (NodeIndex n = 0; n < geom.numNodes(); ++n) {
        const auto base = geom.nodeSlotBase(n);
        const auto z = geom.bucketSize(geom.nodeLevel(n));
        for (std::uint64_t s = base; s < base + z; ++s)
            ASSERT_EQ(geom.slotNode(s), n) << "slot " << s;
    }
}

} // namespace
} // namespace laoram::oram
