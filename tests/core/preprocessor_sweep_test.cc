/**
 * @file
 * Parameterized property sweeps over the preprocessor: the bin
 * invariants must hold for every (superblock size, stream shape)
 * combination, and the future-link rate must track stream reuse.
 */

#include <gtest/gtest.h>

#include <type_traits>
#include <unordered_map>
#include <unordered_set>

#include "core/preprocessor.hh"
#include "util/rng.hh"
#include "workload/generator.hh"

namespace laoram::core {
namespace {

// gtest names each case after the raw bytes of its parameter, so the
// padding is spelled out and zeroed to keep those names build-stable.
struct SweepCase
{
    SweepCase(std::uint64_t s, workload::DatasetKind k, std::uint64_t n)
        : superblock(s), kind(k), numBlocks(n)
    {
    }

    std::uint64_t superblock;
    workload::DatasetKind kind;
    std::uint32_t zeroPad = 0;
    std::uint64_t numBlocks;
};
static_assert(std::has_unique_object_representations_v<SweepCase>);

class PrepSweep : public ::testing::TestWithParam<SweepCase>
{
};

TEST_P(PrepSweep, BinInvariantsHold)
{
    const auto p = GetParam();
    const auto trace =
        workload::makeTrace(p.kind, p.numBlocks, 3000, 11);
    Preprocessor prep(PreprocessorConfig{p.superblock, 256}, 7);
    const auto res = prep.run(trace.accesses);

    std::uint64_t raw_total = 0;
    std::unordered_map<BlockId, Leaf> next_path_of;
    for (std::size_t i = res.bins.size(); i-- > 0;) {
        const auto &bin = res.bins[i];
        ASSERT_EQ(validateBin(bin), "") << "bin " << i;
        EXPECT_LE(bin.members.size(), p.superblock);
        raw_total += bin.rawAccesses;
        // Future-path metadata must equal the backward-scan oracle.
        for (std::size_t j = 0; j < bin.members.size(); ++j) {
            auto it = next_path_of.find(bin.members[j]);
            const Leaf expect = it == next_path_of.end()
                                    ? kNoFuturePath
                                    : it->second;
            ASSERT_EQ(bin.nextPaths[j], expect)
                << "bin " << i << " member " << j;
        }
        for (BlockId id : bin.members)
            next_path_of[id] = bin.path;
    }
    EXPECT_EQ(raw_total, trace.accesses.size());
}

TEST_P(PrepSweep, AllBinsButLastAreFull)
{
    const auto p = GetParam();
    const auto trace =
        workload::makeTrace(p.kind, p.numBlocks, 3000, 13);
    Preprocessor prep(PreprocessorConfig{p.superblock, 256}, 9);
    const auto res = prep.run(trace.accesses);
    for (std::size_t i = 0; i + 1 < res.bins.size(); ++i) {
        EXPECT_EQ(res.bins[i].members.size(), p.superblock)
            << "bin " << i;
    }
}

TEST_P(PrepSweep, FutureLinkRateTracksReuse)
{
    // High-reuse streams (xnli) must future-link a far larger member
    // fraction than no-reuse streams (permutation within one epoch).
    const auto p = GetParam();
    if (p.kind != workload::DatasetKind::Xnli)
        GTEST_SKIP() << "comparison anchored at the xnli case";
    Preprocessor prep(PreprocessorConfig{p.superblock, 256}, 3);

    const auto hot =
        workload::makeTrace(p.kind, p.numBlocks, 3000, 17);
    const auto res_hot = prep.run(hot.accesses);

    const auto cold = workload::makeTrace(
        workload::DatasetKind::Permutation, 60000, 3000, 17);
    const auto res_cold = prep.run(cold.accesses);

    std::uint64_t hot_members = 0, cold_members = 0;
    for (const auto &b : res_hot.bins)
        hot_members += b.members.size();
    for (const auto &b : res_cold.bins)
        cold_members += b.members.size();
    const double hot_rate = static_cast<double>(res_hot.futureLinked)
        / static_cast<double>(hot_members);
    const double cold_rate =
        static_cast<double>(res_cold.futureLinked)
        / static_cast<double>(cold_members);
    EXPECT_GT(hot_rate, cold_rate + 0.2);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PrepSweep,
    ::testing::Values(
        SweepCase{1, workload::DatasetKind::Kaggle, 1 << 14},
        SweepCase{2, workload::DatasetKind::Kaggle, 1 << 14},
        SweepCase{4, workload::DatasetKind::Kaggle, 1 << 14},
        SweepCase{8, workload::DatasetKind::Kaggle, 1 << 14},
        SweepCase{16, workload::DatasetKind::Kaggle, 1 << 14},
        SweepCase{4, workload::DatasetKind::Permutation, 1 << 12},
        SweepCase{4, workload::DatasetKind::Gaussian, 1 << 12},
        SweepCase{4, workload::DatasetKind::Xnli, 1 << 12},
        SweepCase{8, workload::DatasetKind::Xnli, 1 << 12}));

} // namespace
} // namespace laoram::core
