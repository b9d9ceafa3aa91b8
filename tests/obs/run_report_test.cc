/**
 * @file
 * Run-report schema tests: a plain and a sharded --report-json
 * document carry schema laoram.run_report.v2, every "pipeline" object
 * in them reports the run's simulated ORAM time as "sim_ns", and none
 * of v1's analytic stage-1 model fields or duplicate simulated times
 * is written.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "../common/scratch_dir.hh"
#include "core/pipeline.hh"
#include "core/sharded_laoram.hh"
#include "obs/run_report.hh"

namespace laoram::obs {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/**
 * The body of every `"pipeline": {...}` object in @p doc (the writer
 * emits no braces inside string values, so brace depth is enough).
 */
std::vector<std::string>
pipelineObjects(const std::string &doc)
{
    const std::string key = "\"pipeline\": {";
    std::vector<std::string> out;
    for (std::size_t at = doc.find(key); at != std::string::npos;
         at = doc.find(key, at + 1)) {
        const std::size_t open = at + key.size() - 1;
        int depth = 0;
        std::size_t end = open;
        for (; end < doc.size(); ++end) {
            if (doc[end] == '{')
                ++depth;
            else if (doc[end] == '}' && --depth == 0)
                break;
        }
        out.push_back(doc.substr(open, end - open + 1));
    }
    return out;
}

std::size_t
count(const std::string &doc, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t at = doc.find(needle); at != std::string::npos;
         at = doc.find(needle, at + 1))
        ++n;
    return n;
}

void
expectV2(const std::string &doc, std::size_t pipelines)
{
    EXPECT_NE(doc.find("\"schema\": \"laoram.run_report.v2\""),
              std::string::npos);
    const std::vector<std::string> objects = pipelineObjects(doc);
    ASSERT_EQ(objects.size(), pipelines);
    for (const std::string &obj : objects)
        EXPECT_EQ(count(obj, "\"sim_ns\": "), 1u) << obj;
    for (const char *gone :
         {"total_prep_ns", "total_access_ns", "serial_ns",
          "pipelined_ns", "prep_hidden_fraction", "sim_total_ns"})
        EXPECT_EQ(doc.find(std::string("\"") + gone + "\""),
                  std::string::npos)
            << gone;
}

std::vector<core::BlockId>
sequentialTrace(std::uint64_t n, std::uint64_t blocks)
{
    std::vector<core::BlockId> trace;
    trace.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
        trace.push_back((i * 2654435761u) % blocks);
    return trace;
}

TEST(RunReport, PlainReportIsV2WithSimNs)
{
    const test::ScratchDir scratch;
    const std::string path = scratch.file("plain.json");

    core::LaoramConfig cfg;
    cfg.base.numBlocks = 256;
    cfg.base.seed = 5;
    cfg.superblockSize = 4;
    core::Laoram engine(cfg);
    core::PipelineConfig pc;
    pc.windowAccesses = 64;
    const core::PipelineReport rep = core::BatchPipeline(engine, pc).run(
        sequentialTrace(512, cfg.base.numBlocks));
    ASSERT_GT(rep.simNs, 0.0);
    ASSERT_TRUE(
        writeRunReportJson(path, rep, &engine.meter().counters()));

    const std::string doc = slurp(path);
    EXPECT_NE(doc.find("\"kind\": \"pipeline\""), std::string::npos);
    expectV2(doc, 1);
}

TEST(RunReport, ShardedReportIsV2WithSimNsPerPipeline)
{
    const test::ScratchDir scratch;
    const std::string path = scratch.file("sharded.json");

    core::ShardedLaoramConfig cfg;
    cfg.engine.base.numBlocks = 512;
    cfg.engine.base.seed = 6;
    cfg.engine.superblockSize = 4;
    cfg.numShards = 3;
    cfg.pipeline.windowAccesses = 64;
    core::ShardedLaoram engine(cfg);
    const core::ShardedPipelineReport rep = engine.runTrace(
        sequentialTrace(1024, cfg.engine.base.numBlocks));
    ASSERT_TRUE(writeRunReportJson(path, rep));

    const std::string doc = slurp(path);
    EXPECT_NE(doc.find("\"kind\": \"sharded\""), std::string::npos);
    // The aggregate plus one pipeline object per shard.
    expectV2(doc, 1 + cfg.numShards);
    // Plus the run's max-over-shards simulated time, once.
    EXPECT_EQ(count(doc, "\"sim_ns\": "), 2u + cfg.numShards);
}

} // namespace
} // namespace laoram::obs
