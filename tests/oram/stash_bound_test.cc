/**
 * @file
 * Statistical validation of PathORAM's stash-bound behaviour: the
 * PathORAM paper (Theorem 1) shows the stash exceeds R blocks with
 * probability that decays geometrically in R (for Z >= 4 it is
 * bounded by 14 * 0.6^R). We verify the measured post-access stash
 * occupancy distribution exhibits that fast tail decay, and that the
 * worst-case (permutation-like) load stays within the theorem's
 * regime.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "oram/path_oram.hh"
#include "util/rng.hh"

namespace laoram::oram {
namespace {

TEST(StashBound, TailDecaysGeometrically)
{
    EngineConfig cfg;
    cfg.numBlocks = 4096;
    cfg.blockBytes = 64;
    cfg.seed = 5;
    cfg.stashHighWater = ~std::uint64_t{0}; // observe raw occupancy
    cfg.stashLowWater = 0;
    PathOram oram(cfg);

    // Preload the working set so occupancy is steady-state.
    for (BlockId id = 0; id < 4096; ++id)
        oram.touch(id);

    Rng rng(9);
    // Post-access occupancy counts, one bucket per stash size.
    constexpr std::size_t kBuckets = 64;
    std::vector<std::uint64_t> counts(kBuckets, 0);
    std::uint64_t overflow = 0;
    constexpr int kAccesses = 20000;
    for (int i = 0; i < kAccesses; ++i) {
        oram.touch(rng.nextBounded(4096));
        const std::uint64_t size = oram.stashSize();
        if (size < kBuckets)
            ++counts[size];
        else
            ++overflow;
    }

    // Z=4 PathORAM: overwhelming mass at tiny stash sizes, and a
    // tail far below the theorem's 14 * 0.6^R envelope.
    EXPECT_EQ(overflow, 0u) << "stash exceeded 64 blocks";
    // 99.9th percentile, interpolated within its one-block bucket.
    const double target = 0.999 * kAccesses;
    double below = 0.0;
    double q999 = static_cast<double>(kBuckets);
    for (std::size_t r = 0; r < kBuckets; ++r) {
        const auto n = static_cast<double>(counts[r]);
        if (n > 0.0 && below + n >= target) {
            q999 = static_cast<double>(r) + (target - below) / n;
            break;
        }
        below += n;
    }
    EXPECT_LT(q999, 30.0);
    // Envelope check at a few R values.
    std::uint64_t cum = 0;
    for (std::size_t r = kBuckets; r-- > 0;) {
        cum += counts[r];
        if (r >= 10) {
            const double p_exceed =
                static_cast<double>(cum) / kAccesses;
            const double envelope =
                14.0 * std::pow(0.6, static_cast<double>(r));
            EXPECT_LE(p_exceed, envelope + 0.01)
                << "tail too heavy at R=" << r;
        }
    }
}

TEST(StashBound, MeanOccupancyTiny)
{
    EngineConfig cfg;
    cfg.numBlocks = 2048;
    cfg.blockBytes = 64;
    cfg.seed = 6;
    PathOram oram(cfg);
    for (BlockId id = 0; id < 2048; ++id)
        oram.touch(id);

    Rng rng(10);
    constexpr int kTouches = 10000;
    double sum = 0.0;
    for (int i = 0; i < kTouches; ++i) {
        oram.touch(rng.nextBounded(2048));
        sum += static_cast<double>(oram.stashSize());
    }
    EXPECT_LT(sum / kTouches, 8.0)
        << "Z=4 steady-state stash should average a few blocks";
}

} // namespace
} // namespace laoram::oram
