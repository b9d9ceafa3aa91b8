/**
 * @file
 * Tree-geometry tests: indexing, fat-tree bucket profiles, and the
 * memory accounting behind paper Table I.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "oram/tree_geometry.hh"
#include "util/rng.hh"

namespace laoram::oram {
namespace {

TEST(BucketProfile, Factories)
{
    EXPECT_TRUE(BucketProfile::uniform(4).isUniform());
    EXPECT_FALSE(BucketProfile::fat(4).isUniform());
    EXPECT_EQ(BucketProfile::fat(5).rootZ, 10u);
    const auto lin = BucketProfile::linear(5, 9);
    EXPECT_EQ(lin.leafZ, 5u);
    EXPECT_EQ(lin.rootZ, 9u);
}

TEST(TreeGeometry, BasicShape)
{
    TreeGeometry g(1024, 128, BucketProfile::uniform(4));
    EXPECT_EQ(g.leafLevel(), 10u);
    EXPECT_EQ(g.numLeaves(), 1024u);
    EXPECT_EQ(g.numNodes(), 2047u);
    EXPECT_EQ(g.totalSlots(), 2047u * 4);
    EXPECT_EQ(g.pathSlots(), 11u * 4);
}

TEST(TreeGeometry, NonPow2RoundsUp)
{
    TreeGeometry g(1000, 64, BucketProfile::uniform(4));
    EXPECT_EQ(g.numLeaves(), 1024u);
    EXPECT_EQ(g.numBlocks(), 1000u);
}

TEST(TreeGeometry, TinyTrees)
{
    TreeGeometry g1(1, 16, BucketProfile::uniform(2));
    EXPECT_EQ(g1.leafLevel(), 1u);
    EXPECT_EQ(g1.numLeaves(), 2u);
    TreeGeometry g2(2, 16, BucketProfile::uniform(2));
    EXPECT_EQ(g2.numLeaves(), 2u);
    TreeGeometry g3(3, 16, BucketProfile::uniform(2));
    EXPECT_EQ(g3.numLeaves(), 4u);
}

TEST(TreeGeometry, PaperFatExample)
{
    // Paper §V: leaf bucket 5, six levels (leaf level 5) -> bucket
    // sizes 10, 9, 8, 7, 6, 5 from root to leaf. The paper's system
    // keeps no treetop (k = 0).
    TreeGeometry g(32, 16, BucketProfile::fat(5), 0);
    ASSERT_EQ(g.leafLevel(), 5u);
    EXPECT_EQ(g.bucketSize(0), 10u);
    EXPECT_EQ(g.bucketSize(1), 9u);
    EXPECT_EQ(g.bucketSize(2), 8u);
    EXPECT_EQ(g.bucketSize(3), 7u);
    EXPECT_EQ(g.bucketSize(4), 6u);
    EXPECT_EQ(g.bucketSize(5), 5u);
}

TEST(TreeGeometry, FatMonotoneNonIncreasing)
{
    TreeGeometry g(1 << 16, 16, BucketProfile::fat(4), 0);
    for (unsigned l = 1; l <= g.leafLevel(); ++l)
        EXPECT_LE(g.bucketSize(l), g.bucketSize(l - 1));
    EXPECT_EQ(g.bucketSize(0), 8u);
    EXPECT_EQ(g.bucketSize(g.leafLevel()), 4u);
}

TEST(TreeGeometry, PathNodeMatchesParentWalk)
{
    TreeGeometry g(1 << 8, 16, BucketProfile::uniform(4));
    const unsigned L = g.leafLevel();
    for (Leaf leaf : {Leaf{0}, Leaf{1}, Leaf{100}, Leaf{255}}) {
        // Walk up from the leaf node using heap parent arithmetic and
        // compare against pathNode at every level.
        NodeIndex node = (NodeIndex{1} << L) - 1 + leaf;
        for (unsigned level = L + 1; level-- > 0;) {
            EXPECT_EQ(g.pathNode(leaf, level), node)
                << "leaf " << leaf << " level " << level;
            if (node == 0)
                break;
            node = (node - 1) / 2;
        }
    }
}

TEST(TreeGeometry, RootIsSharedByAllPaths)
{
    TreeGeometry g(1 << 10, 16, BucketProfile::uniform(4));
    for (Leaf leaf = 0; leaf < g.numLeaves(); leaf += 37)
        EXPECT_EQ(g.pathNode(leaf, 0), 0u);
}

TEST(TreeGeometry, NodeLevelRoundTrips)
{
    TreeGeometry g(1 << 6, 16, BucketProfile::uniform(4));
    EXPECT_EQ(g.nodeLevel(0), 0u);
    EXPECT_EQ(g.nodeLevel(1), 1u);
    EXPECT_EQ(g.nodeLevel(2), 1u);
    EXPECT_EQ(g.nodeLevel(3), 2u);
    EXPECT_EQ(g.nodeLevel(g.numNodes() - 1), g.leafLevel());
}

TEST(TreeGeometry, SlotRangesPartitionStorage)
{
    // Every slot must belong to exactly one node.
    TreeGeometry g(1 << 5, 16, BucketProfile::fat(3), 0);
    std::set<std::uint64_t> seen;
    for (NodeIndex n = 0; n < g.numNodes(); ++n) {
        const std::uint64_t base = g.nodeSlotBase(n);
        const std::uint64_t z = g.bucketSize(g.nodeLevel(n));
        for (std::uint64_t s = base; s < base + z; ++s)
            EXPECT_TRUE(seen.insert(s).second)
                << "slot " << s << " double-owned";
    }
    EXPECT_EQ(seen.size(), g.totalSlots());
    EXPECT_EQ(*seen.rbegin(), g.totalSlots() - 1);
}

TEST(TreeGeometry, CommonLevelProperties)
{
    TreeGeometry g(1 << 8, 16, BucketProfile::uniform(4));
    const unsigned L = g.leafLevel();
    EXPECT_EQ(g.commonLevel(5, 5), L);
    // Leaves differing only in the lowest bit share all but the last
    // level.
    EXPECT_EQ(g.commonLevel(4, 5), L - 1);
    // Leaves in different halves share only the root.
    EXPECT_EQ(g.commonLevel(0, g.numLeaves() - 1), 0u);
    // Symmetry.
    for (Leaf a = 0; a < 16; ++a)
        for (Leaf b = 0; b < 16; ++b)
            EXPECT_EQ(g.commonLevel(a, b), g.commonLevel(b, a));
}

TEST(TreeGeometry, CommonLevelMatchesSharedPathPrefix)
{
    TreeGeometry g(1 << 6, 16, BucketProfile::uniform(4));
    for (Leaf a = 0; a < g.numLeaves(); a += 5) {
        for (Leaf b = 0; b < g.numLeaves(); b += 7) {
            const unsigned cl = g.commonLevel(a, b);
            for (unsigned l = 0; l <= cl; ++l)
                EXPECT_EQ(g.pathNode(a, l), g.pathNode(b, l));
            if (cl < g.leafLevel()) {
                EXPECT_NE(g.pathNode(a, cl + 1), g.pathNode(b, cl + 1));
            }
        }
    }
}

TEST(TreeGeometry, TableOneInsecureSizes)
{
    // Table I row "8M": 8M entries x 128 B = 1 GB.
    EXPECT_EQ(TreeGeometry::insecureBytes(8ULL << 20, 128),
              1ULL << 30);
    // "XNLI": 262144 x 4 KiB = 1 GiB.
    EXPECT_EQ(TreeGeometry::insecureBytes(262144, 4096), 1ULL << 30);
}

TEST(TreeGeometry, TableOnePathOramBlowup)
{
    // Table I: PathORAM (Z=4, one leaf per block) stores 8x the
    // insecure bytes (4 slots x ~2N nodes).
    TreeGeometry g(8ULL << 20, 128, BucketProfile::uniform(4), 0);
    const double ratio = static_cast<double>(g.serverBytes())
        / static_cast<double>(
              TreeGeometry::insecureBytes(8ULL << 20, 128));
    EXPECT_NEAR(ratio, 8.0, 0.01);
}

TEST(TreeGeometry, MemoryNeutralFatSmallerThanUniform6)
{
    // Paper §VIII-C: fat 9->5 uses ~16.6% less memory than uniform 6.
    TreeGeometry fat(1 << 20, 128, BucketProfile::linear(5, 9), 0);
    TreeGeometry uni(1 << 20, 128, BucketProfile::uniform(6), 0);
    EXPECT_LT(fat.serverBytes(), uni.serverBytes());
    const double saving = 1.0
        - static_cast<double>(fat.serverBytes())
            / static_cast<double>(uni.serverBytes());
    // Linear decay over many levels: savings approach 1 - (5 + 2/L)/6;
    // accept a band around the paper's 16.6%.
    EXPECT_GT(saving, 0.10);
    EXPECT_LT(saving, 0.20);
}

TEST(TreeGeometry, FatCostsMoreThanUniformSameLeaf)
{
    TreeGeometry fat(1 << 16, 128, BucketProfile::fat(4), 0);
    TreeGeometry uni(1 << 16, 128, BucketProfile::uniform(4), 0);
    EXPECT_GT(fat.serverBytes(), uni.serverBytes());
    EXPECT_GT(fat.pathSlots(), uni.pathSlots());
}

TEST(TreeGeometry, CommonLevelDistributionMatchesPaperObservation)
{
    // Paper §V "key observation": for two independent uniform leaves,
    // P(deepest shared level == l) = 2^-(l+1) (root 0.5, level 1
    // 0.25, ...). This is the distribution that motivates widening
    // buckets near the root.
    TreeGeometry g(1 << 10, 16, BucketProfile::uniform(4));
    Rng rng(1234);
    constexpr int kSamples = 200000;
    std::vector<int> hist(g.numLevels(), 0);
    for (int i = 0; i < kSamples; ++i) {
        const Leaf a = rng.nextBounded(g.numLeaves());
        const Leaf b = rng.nextBounded(g.numLeaves());
        ++hist[g.commonLevel(a, b)];
    }
    for (unsigned l = 0; l < 5; ++l) {
        const double expect = std::pow(0.5, l + 1);
        const double got =
            static_cast<double>(hist[l]) / kSamples;
        EXPECT_NEAR(got, expect, 0.01) << "level " << l;
    }
}

/** Geometry invariants across a sweep of sizes and profiles. */
struct GeomCase
{
    std::uint64_t blocks;
    std::uint64_t leafZ;
    std::uint64_t rootZ;
};

class GeometrySweep : public ::testing::TestWithParam<GeomCase>
{
};

TEST_P(GeometrySweep, SlotTotalsConsistent)
{
    const auto p = GetParam();
    const BucketProfile profile = BucketProfile::linear(p.leafZ, p.rootZ);
    for (const unsigned k : {0u, kAutoTreetop}) {
        TreeGeometry g(p.blocks, 64, profile, k);
        // Sum of per-level slot counts equals totalSlots.
        std::uint64_t total = 0, per_path = 0;
        for (unsigned l = 0; l <= g.leafLevel(); ++l) {
            EXPECT_EQ(g.levelFirstSlot(l), total) << "level " << l;
            total += (std::uint64_t{1} << l) * g.bucketSize(l);
            per_path += g.bucketSize(l);
        }
        EXPECT_EQ(total, g.totalSlots());
        EXPECT_EQ(per_path, g.pathSlots());
        EXPECT_EQ(g.serverBytes(), g.totalSlots() * 64);
        EXPECT_EQ(g.bucketSize(g.leafLevel()), p.leafZ);
        if (k == 0) {
            EXPECT_EQ(g.treetopLevels(), 0u);
            EXPECT_EQ(g.bucketSize(0), p.rootZ);
        } else {
            // Over a treetop only the client-held levels are wide.
            ASSERT_EQ(g.treetopLevels(), g.numLevels() / 2);
            const std::uint64_t top =
                profile.isUniform() ? p.leafZ : 2 * p.rootZ;
            for (unsigned l = 0; l <= g.leafLevel(); ++l)
                EXPECT_EQ(g.bucketSize(l),
                          l < g.treetopLevels() ? top : p.leafZ)
                    << "level " << l;
        }
    }
}

/** Slots of one path on levels >= @p k, the ones the server holds. */
std::uint64_t
serverPathSlots(const TreeGeometry &g, unsigned k)
{
    std::uint64_t slots = 0;
    for (unsigned l = k; l <= g.leafLevel(); ++l)
        slots += g.bucketSize(l);
    return slots;
}

TEST(TreeGeometry, WideTreetopPinsTrainingTree)
{
    // train-kaggle's tree: 2^19 blocks, fat(4), 128-B rows. At the
    // default k the top 10 levels hold 16 slots a bucket and every
    // server level holds 4.
    const TreeGeometry g(1 << 19, 128, BucketProfile::fat(4));
    ASSERT_EQ(g.leafLevel(), 19u);
    ASSERT_EQ(g.treetopLevels(), 10u);
    const unsigned k = g.treetopLevels();
    EXPECT_EQ(serverPathSlots(g, k), 40u);
    EXPECT_EQ(g.levelFirstSlot(k), 16368u);
    EXPECT_EQ(g.totalSlots(), 4206576u);
    EXPECT_EQ(g.pathSlots(), 200u);

    // At k = 0 the same profile is §V's linear decay, 8 -> 4: 120
    // slots a path, 49 of them on levels >= 10.
    const TreeGeometry linear(1 << 19, 128, BucketProfile::fat(4), 0);
    EXPECT_EQ(linear.treetopLevels(), 0u);
    EXPECT_EQ(linear.bucketSize(0), 8u);
    EXPECT_EQ(linear.pathSlots(), 120u);
    EXPECT_EQ(linear.totalSlots(), 4329728u);
    EXPECT_EQ(linear.levelFirstSlot(k), 6400u);
    EXPECT_EQ(serverPathSlots(linear, k), 49u);

    // A uniform profile's shape does not depend on k.
    const TreeGeometry uniform(1 << 19, 128, BucketProfile::uniform(4));
    const TreeGeometry uniform0(1 << 19, 128, BucketProfile::uniform(4),
                                0);
    EXPECT_EQ(uniform.treetopLevels(), 10u);
    EXPECT_EQ(uniform.totalSlots(), uniform0.totalSlots());
    EXPECT_EQ(uniform.levelFirstSlot(k), uniform0.levelFirstSlot(k));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GeometrySweep,
    ::testing::Values(GeomCase{16, 4, 4}, GeomCase{17, 4, 4},
                      GeomCase{1024, 4, 8}, GeomCase{4096, 5, 9},
                      GeomCase{100000, 6, 6}, GeomCase{1 << 18, 4, 8},
                      GeomCase{3, 1, 2}, GeomCase{2, 2, 2}));

} // namespace
} // namespace laoram::oram
