/**
 * @file
 * Analytic-bound property tests (paper §VIII-F): measured LAORAM
 * traffic reduction over PathORAM can never exceed the paper's upper
 * bounds — superblockSize for a normal tree and
 * 2(Z+1)/(3Z+1) * superblockSize for the fat tree — and the warm
 * steady state approaches 1/S path reads per access. Over the default
 * treetop the fat tree's server levels are uniform, so its bound
 * there is superblockSize too.
 */

#include <gtest/gtest.h>

#include <type_traits>
#include <vector>

#include "core/laoram_client.hh"
#include "oram/path_oram.hh"
#include "workload/permutation_gen.hh"
#include "workload/zipf_gen.hh"

namespace laoram::core {
namespace {

// gtest names each case after the raw bytes of its parameter, so the
// padding is spelled out and zeroed to keep those names build-stable.
struct BoundCase
{
    std::uint64_t superblock;
    bool fat;
    std::uint8_t zeroPad[7]{};
};
static_assert(std::has_unique_object_representations_v<BoundCase>);

class TrafficBounds : public ::testing::TestWithParam<BoundCase>
{
};

/**
 * PathORAM's server bytes over LAORAM's on a high-reuse stream, both
 * engines keeping @p treetopLevels levels in client memory.
 */
double
measuredReduction(const BoundCase &p, unsigned treetopLevels)
{
    constexpr std::uint64_t kBlocks = 2048;

    // High-reuse stream: the most favourable case for LAORAM, i.e.
    // the one that approaches (and must not exceed) the bound.
    workload::ZipfParams zp;
    zp.numBlocks = kBlocks;
    zp.accesses = 20000;
    zp.skew = 1.1;
    zp.seed = 3;
    const auto trace = workload::makeZipfTrace(zp).accesses;

    oram::EngineConfig base;
    base.numBlocks = kBlocks;
    base.blockBytes = 64;
    base.seed = 9;
    base.profile = oram::BucketProfile::uniform(4);
    base.treetopLevels = treetopLevels;
    oram::PathOram path(base);
    path.runTrace(trace);

    LaoramConfig lcfg;
    lcfg.base = base;
    lcfg.base.profile = p.fat ? oram::BucketProfile::fat(4)
                              : oram::BucketProfile::uniform(4);
    lcfg.superblockSize = p.superblock;
    Laoram laoram(lcfg);
    laoram.runTrace(trace);

    return static_cast<double>(path.meter().counters().totalBytes())
           / static_cast<double>(laoram.meter().counters().totalBytes());
}

TEST_P(TrafficBounds, ReductionRespectsPaperBound)
{
    const auto p = GetParam();
    constexpr double kZ = 4.0;
    const double s = static_cast<double>(p.superblock);

    // k = 0: the paper's trees, whole paths on the server and §V's
    // linear fat tree, so the paper's bounds.
    // Default k: the server sees only levels >= k, and there a fat
    // profile keeps leafZ slots a bucket, PathORAM's, so the bound
    // is S for both profiles.
    struct Leg
    {
        const char *name;
        unsigned treetopLevels;
        double bound;
    };
    const Leg legs[] = {
        {"k = 0", 0, p.fat ? 2.0 * (kZ + 1.0) / (3.0 * kZ + 1.0) * s : s},
        {"default k", oram::kAutoTreetop, s},
    };
    for (const Leg &leg : legs) {
        SCOPED_TRACE(leg.name);
        const double reduction = measuredReduction(p, leg.treetopLevels);
        EXPECT_LE(reduction, leg.bound * 1.02)
            << "measured reduction exceeds the analytic bound";
        if (p.superblock >= 2) {
            EXPECT_GT(reduction, 1.0)
                << "superblocks should beat PathORAM on a reuse-heavy "
                   "stream";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TrafficBounds,
    ::testing::Values(BoundCase{1, false}, BoundCase{2, false},
                      BoundCase{4, false}, BoundCase{8, false},
                      BoundCase{2, true}, BoundCase{4, true},
                      BoundCase{8, true}));

TEST(TrafficBounds, WarmSteadyStateApproachesOneOverS)
{
    // Fully re-used stream (repeated epochs, whole-trace look-ahead):
    // path reads per access must converge toward 1/S.
    constexpr std::uint64_t kBlocks = 1024;
    constexpr std::uint64_t kS = 4;

    LaoramConfig cfg;
    cfg.base.numBlocks = kBlocks;
    cfg.base.blockBytes = 64;
    cfg.base.seed = 4;
    cfg.superblockSize = kS;
    Laoram oram(cfg);

    workload::PermutationParams pp;
    pp.numBlocks = kBlocks;
    pp.accesses = kBlocks * 12; // long run, one look-ahead window
    pp.seed = 5;
    oram.runTrace(workload::makePermutationTrace(pp).accesses);

    // Overall rate = (1 cold epoch + 11 warm epochs) / 12; warm rate
    // is 1/S, so expect ~(1 + 11/4)/12 = 0.3125, and certainly below
    // 0.4.
    const double rpa =
        oram.meter().counters().pathReadsPerAccess();
    EXPECT_LT(rpa, 0.40);
    EXPECT_GT(rpa, 1.0 / static_cast<double>(kS) - 0.02);
}

} // namespace
} // namespace laoram::core
