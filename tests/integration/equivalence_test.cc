/**
 * @file
 * Cross-engine functional equivalence: every ORAM engine is, to the
 * application, a plain key-value store. Identical op sequences must
 * produce identical results across PathORAM, PrORAM, RingORAM, and
 * LAORAM.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "core/laoram_client.hh"
#include "oram/path_oram.hh"
#include "oram/pro_oram.hh"
#include "oram/ring_oram.hh"
#include "util/rng.hh"

namespace laoram {
namespace {

using oram::BlockId;
using oram::EngineConfig;
using oram::OramEngine;

constexpr std::uint64_t kBlocks = 96;
constexpr std::uint64_t kPayload = 12;

EngineConfig
baseConfig()
{
    EngineConfig cfg;
    cfg.numBlocks = kBlocks;
    cfg.blockBytes = 64;
    cfg.payloadBytes = kPayload;
    cfg.seed = 5150;
    return cfg;
}

std::vector<std::unique_ptr<OramEngine>>
allEngines()
{
    std::vector<std::unique_ptr<OramEngine>> engines;
    engines.push_back(std::make_unique<oram::PathOram>(baseConfig()));

    oram::ProOramConfig pcfg;
    pcfg.base = baseConfig();
    pcfg.groupSize = 4;
    engines.push_back(std::make_unique<oram::ProOram>(pcfg));

    oram::RingOramConfig rcfg;
    rcfg.base = baseConfig();
    engines.push_back(std::make_unique<oram::RingOram>(rcfg));

    core::LaoramConfig lcfg;
    lcfg.base = baseConfig();
    lcfg.superblockSize = 4;
    engines.push_back(std::make_unique<core::Laoram>(lcfg));
    return engines;
}

TEST(Equivalence, AllEnginesMatchReferenceKvStore)
{
    auto engines = allEngines();
    std::map<BlockId, std::vector<std::uint8_t>> ref;
    Rng rng(1);

    for (int step = 0; step < 400; ++step) {
        const BlockId id = rng.nextBounded(kBlocks);
        if (rng.nextBool(0.5)) {
            std::vector<std::uint8_t> data(
                kPayload, static_cast<std::uint8_t>(step));
            for (auto &e : engines)
                e->writeBlock(id, data);
            ref[id] = data;
        } else {
            const std::vector<std::uint8_t> expect =
                ref.count(id) ? ref[id]
                              : std::vector<std::uint8_t>(kPayload, 0);
            for (auto &e : engines) {
                std::vector<std::uint8_t> out;
                e->readBlock(id, out);
                EXPECT_EQ(out, expect)
                    << e->name() << " step " << step << " id " << id;
            }
        }
    }
}

TEST(Equivalence, EnginesReportDistinctNames)
{
    auto engines = allEngines();
    std::map<std::string, int> names;
    for (auto &e : engines)
        ++names[e->name()];
    EXPECT_EQ(names.size(), engines.size());
}

TEST(Equivalence, AllEnginesAccountLogicalAccesses)
{
    auto engines = allEngines();
    Rng rng(2);
    std::vector<BlockId> trace;
    for (int i = 0; i < 120; ++i)
        trace.push_back(rng.nextBounded(kBlocks));
    for (auto &e : engines) {
        e->runTrace(trace);
        EXPECT_EQ(e->meter().counters().logicalAccesses, trace.size())
            << e->name();
    }
}

TEST(Equivalence, AllEnginesAdvanceSimulatedTime)
{
    auto engines = allEngines();
    for (auto &e : engines) {
        e->touch(1);
        EXPECT_GT(e->meter().clock().nanoseconds(), 0.0) << e->name();
    }
}

} // namespace
} // namespace laoram
