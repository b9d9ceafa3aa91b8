/**
 * @file
 * Stash container tests.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "oram/stash.hh"

namespace laoram::oram {
namespace {

TEST(Stash, EmptyOnConstruction)
{
    Stash s;
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.size(), 0u);
    EXPECT_EQ(s.find(1), nullptr);
    EXPECT_FALSE(s.contains(1));
}

TEST(Stash, PutFindErase)
{
    Stash s;
    s.put(7, 3, {1, 2, 3});
    ASSERT_TRUE(s.contains(7));
    StashEntry *e = s.find(7);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->leaf, 3u);
    EXPECT_EQ(e->payload, (std::vector<std::uint8_t>{1, 2, 3}));
    s.erase(7);
    EXPECT_FALSE(s.contains(7));
    EXPECT_TRUE(s.empty());
}

TEST(Stash, PutOverwrites)
{
    Stash s;
    s.put(1, 2, {9});
    s.put(1, 5, {8, 8});
    EXPECT_EQ(s.size(), 1u);
    EXPECT_EQ(s.find(1)->leaf, 5u);
    EXPECT_EQ(s.find(1)->payload.size(), 2u);
}

TEST(Stash, PayloadLessPutKeepsExistingPayload)
{
    Stash s;
    s.put(1, 2, {7, 7});
    s.remap(1, 9, 0); // leaf-only update
    EXPECT_EQ(s.find(1)->leaf, 9u);
    EXPECT_EQ(s.find(1)->payload, (std::vector<std::uint8_t>{7, 7}));
}

TEST(Stash, IterationCoversAll)
{
    Stash s;
    for (BlockId id = 0; id < 10; ++id)
        s.remap(id, id * 2, 0);
    std::uint64_t seen = 0;
    for (const auto &[id, entry] : s) {
        EXPECT_EQ(entry.leaf, id * 2);
        ++seen;
    }
    EXPECT_EQ(seen, 10u);
}

TEST(Stash, MutableLeafViaIteration)
{
    Stash s;
    s.remap(1, 0, 0);
    for (auto &[id, entry] : s)
        entry.leaf = 42;
    EXPECT_EQ(s.find(1)->leaf, 42u);
}

TEST(Stash, ResidentBytesScalesWithSize)
{
    Stash s;
    EXPECT_EQ(s.residentBytes(100), 0u);
    s.remap(1, 0, 0);
    s.remap(2, 0, 0);
    EXPECT_EQ(s.residentBytes(100), 2 * (8 + 8 + 100));
}

TEST(Stash, RemapCreatesZeroFilledOrRetargets)
{
    Stash s;
    StashEntry &fresh = s.remap(4, 6, 3);
    EXPECT_EQ(fresh.leaf, 6u);
    EXPECT_EQ(fresh.payload, (std::vector<std::uint8_t>(3, 0)));
    fresh.payload = {1, 2, 3};
    StashEntry &again = s.remap(4, 9, 3);
    EXPECT_EQ(&again, &fresh);
    EXPECT_EQ(again.leaf, 9u);
    EXPECT_EQ(again.payload, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(Stash, TakenEntryMovesWithoutCopyAndLeavesTheMap)
{
    Stash s;
    s.put(1, 2, {5, 6});
    s.put(3, 4, {7});
    const std::uint8_t *bytes = s.find(1)->payload.data();
    Stash::Node node = s.take(1);
    ASSERT_FALSE(node.empty());
    EXPECT_EQ(node.key(), 1u);
    EXPECT_EQ(node.mapped().leaf, 2u);
    EXPECT_EQ(node.mapped().payload.data(), bytes);
    EXPECT_EQ(s.size(), 1u);
    EXPECT_FALSE(s.contains(1));
    EXPECT_EQ(s.find(1), nullptr);
    for (const auto &[id, entry] : s)
        EXPECT_EQ(id, 3u);

    s.give(std::move(node));
    EXPECT_TRUE(node.empty());
    EXPECT_EQ(s.size(), 2u);
    ASSERT_TRUE(s.contains(1));
    EXPECT_EQ(s.find(1)->leaf, 2u);
    EXPECT_EQ(s.find(1)->payload.data(), bytes);
}

TEST(Stash, SnapshotLeavesTakenEntriesOut)
{
    Stash s;
    for (BlockId id = 0; id < 6; ++id)
        s.put(id, id + 10, {static_cast<std::uint8_t>(id)});
    const Stash::Node four = s.take(4);
    const Stash::Node one = s.take(1);
    serde::Serializer out;
    s.save(out);

    Stash back;
    back.remap(99, 0, 0);
    serde::Deserializer in(out.data());
    back.restore(in);
    EXPECT_TRUE(in.atEnd());
    EXPECT_EQ(back.size(), 4u);
    EXPECT_FALSE(back.contains(99));
    EXPECT_FALSE(back.contains(1));
    EXPECT_FALSE(back.contains(4));
    for (const auto &[id, entry] : back) {
        EXPECT_EQ(entry.leaf, id + 10);
        EXPECT_EQ(entry.payload, std::vector<std::uint8_t>{
                                     static_cast<std::uint8_t>(id)});
    }

    // The same contents save to the same bytes, whatever the history.
    serde::Serializer again;
    back.save(again);
    EXPECT_EQ(again.data(), out.data());
}

} // namespace
} // namespace laoram::oram
