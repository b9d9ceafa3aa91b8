/**
 * @file
 * PathIo tests: path reads absorb blocks, greedy write-back places
 * deepest-first, and the tree auditor catches corruption.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "oram/evictor.hh"
#include "util/rng.hh"

namespace laoram::oram {
namespace {

struct PathIoFixture : public ::testing::Test
{
    PathIoFixture()
        : geom(64, 8, BucketProfile::uniform(4)),
          storage(geom, 8, false),
          rng(7),
          posmap(64, geom.numLeaves(), rng),
          io(geom, storage, stash)
    {
    }

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
    PathIo io;
};

TEST_F(PathIoFixture, ReadEmptyPathAbsorbsNothing)
{
    EXPECT_EQ(io.readPath(0), 0u);
    EXPECT_TRUE(stash.empty());
}

TEST_F(PathIoFixture, WriteThenReadRoundTripsBlock)
{
    const Leaf leaf = 5;
    posmap.set(1, leaf);
    stash.put(1, leaf, payloadFor(1));
    EXPECT_EQ(io.writePath(leaf), 1u);
    EXPECT_TRUE(stash.empty());

    EXPECT_EQ(io.readPath(leaf), 1u);
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
    io.writePath(leaf);

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
    io.writePath(write_leaf);
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
    const std::uint64_t written = io.writePath(leaf);
    EXPECT_EQ(written, std::min(staged, capacity));
    EXPECT_EQ(stash.size(), staged - written);
}

TEST_F(PathIoFixture, AuditPassesAfterRandomChurn)
{
    // Random accesses through raw PathIo keep the invariant.
    for (int round = 0; round < 200; ++round) {
        const BlockId id = rng.nextBounded(geom.numBlocks());
        const Leaf cur = posmap.get(id);
        io.readPath(cur);
        const Leaf next = rng.nextBounded(geom.numLeaves());
        posmap.set(id, next);
        if (StashEntry *e = stash.find(id))
            e->leaf = next;
        else
            stash.put(id, next, payloadFor(id));
        io.writePath(cur);
    }
    EXPECT_EQ(auditTree(geom, storage, stash, posmap), "");
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
    EXPECT_NE(auditTree(geom, storage, stash, posmap), "");
}

TEST_F(PathIoFixture, AuditCatchesStaleLeafField)
{
    posmap.set(6, 2);
    auto payload = payloadFor(6);
    // Stored leaf (7) disagrees with the position map (2).
    storage.writeSlot(geom.nodeSlotBase(0), 6, 7, payload.data(),
                      payload.size());
    EXPECT_NE(auditTree(geom, storage, stash, posmap), "");
}

TEST_F(PathIoFixture, AuditCatchesTreeStashDuplicate)
{
    const Leaf leaf = 1;
    posmap.set(8, leaf);
    auto payload = payloadFor(8);
    storage.writeSlot(geom.nodeSlotBase(0), 8, leaf, payload.data(),
                      payload.size());
    stash.put(8, leaf, payloadFor(8));
    EXPECT_NE(auditTree(geom, storage, stash, posmap), "");
}

TEST_F(PathIoFixture, FatTreePathHoldsMoreBlocks)
{
    TreeGeometry fat_geom(64, 8, BucketProfile::fat(4));
    ServerStorage fat_storage(fat_geom, 8, false);
    Stash fat_stash;
    PathIo fat_io(fat_geom, fat_storage, fat_stash);

    const Leaf leaf = 2;
    for (BlockId id = 0; id < fat_geom.pathSlots(); ++id) {
        if (id >= fat_geom.numBlocks())
            break;
        fat_stash.put(id, leaf, payloadFor(id));
    }
    const std::uint64_t staged = fat_stash.size();
    const std::uint64_t written = fat_io.writePath(leaf);
    EXPECT_EQ(written, std::min<std::uint64_t>(staged,
                                               fat_geom.pathSlots()));
    EXPECT_GT(fat_geom.pathSlots(), geom.pathSlots());
}

TEST_F(PathIoFixture, BatchedUnionMatchesSortUniqueReference)
{
    // The batched union must visit exactly the nodes of the reference
    // construction (every path node, sorted, de-duplicated, reversed:
    // deepest level first, descending within a level) in that order,
    // for unsorted leaf multisets with duplicates, on both the read and
    // the write-back. A fat tree gives every level its own bucket size.
    TreeGeometry fat(256, 8, BucketProfile::fat(4));
    ServerStorage store(fat, 0, false);
    Stash st;
    PathIo pio(fat, store, st);
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
        ASSERT_EQ(pio.readPathsBatched(readLeaves), expect.size())
            << "round " << round;
        ASSERT_EQ(log, expect) << "round " << round;

        expect = reference(writeLeaves);
        for (auto &e : expect)
            e.second = true;
        log.clear();
        ASSERT_EQ(pio.writePathsBatched(writeLeaves), expect.size())
            << "round " << round;
        ASSERT_EQ(log, expect) << "round " << round;
    }
}

} // namespace
} // namespace laoram::oram
