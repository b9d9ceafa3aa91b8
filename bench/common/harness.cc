#include "common/harness.hh"

#include <cstdlib>
#include <fstream>
#include <iostream>

#include "oram/path_oram.hh"
#include "util/json_writer.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace laoram::bench {

std::string
EngineSpec::label() const
{
    switch (kind) {
      case Kind::PathOramBaseline:
        return "PathORAM";
      case Kind::Normal:
        return "Normal/S" + std::to_string(superblock);
      case Kind::Fat:
        return "Fat/S" + std::to_string(superblock);
    }
    return "?";
}

std::vector<EngineSpec>
paperConfigs()
{
    return {
        {EngineSpec::Kind::PathOramBaseline, 1},
        {EngineSpec::Kind::Normal, 2},
        {EngineSpec::Kind::Normal, 4},
        {EngineSpec::Kind::Normal, 8},
        {EngineSpec::Kind::Fat, 2},
        {EngineSpec::Kind::Fat, 4},
        {EngineSpec::Kind::Fat, 8},
    };
}

std::unique_ptr<oram::OramEngine>
makeEngine(const EngineSpec &spec, std::uint64_t numBlocks,
           const HarnessConfig &cfg)
{
    oram::EngineConfig base;
    base.numBlocks = numBlocks;
    base.blockBytes = cfg.blockBytes;
    base.payloadBytes = 0; // pattern-level simulation
    base.stashHighWater = cfg.stashHighWater;
    base.stashLowWater = cfg.stashLowWater;
    base.encrypt = false;
    base.seed = cfg.seed;
    base.treetopLevels = 0; // the paper's system keeps no treetop

    switch (spec.kind) {
      case EngineSpec::Kind::PathOramBaseline: {
        base.profile = oram::BucketProfile::uniform(cfg.bucketZ);
        return std::make_unique<oram::PathOram>(base);
      }
      case EngineSpec::Kind::Normal: {
        base.profile = oram::BucketProfile::uniform(cfg.bucketZ);
        core::LaoramConfig lcfg;
        lcfg.base = base;
        lcfg.superblockSize = spec.superblock;
        return std::make_unique<core::Laoram>(lcfg);
      }
      case EngineSpec::Kind::Fat: {
        base.profile = oram::BucketProfile::fat(cfg.bucketZ);
        core::LaoramConfig lcfg;
        lcfg.base = base;
        lcfg.superblockSize = spec.superblock;
        return std::make_unique<core::Laoram>(lcfg);
      }
    }
    LAORAM_PANIC("unreachable engine kind");
}

RunResult
runSpec(const EngineSpec &spec, const workload::Trace &trace,
        const HarnessConfig &cfg)
{
    auto engine = makeEngine(spec, trace.numBlocks, cfg);
    engine->runTrace(trace.accesses);

    RunResult res;
    res.label = spec.label();
    res.counters = engine->meter().counters();
    res.simMs = engine->meter().clock().milliseconds();
    res.serverBytes = engine->geometry().serverBytes();
    return res;
}

DatasetScale
scaleFor(workload::DatasetKind kind, bool full)
{
    using workload::DatasetKind;
    DatasetScale s;
    s.blockBytes = workload::paperBlockBytes(kind);
    if (full) {
        s.numBlocks = workload::paperNumBlocks(kind);
        // One paper-scale "epoch" per entry count; the benches then
        // multiply by their epoch counts.
        s.accesses = s.numBlocks;
        return s;
    }
    switch (kind) {
      case DatasetKind::Permutation:
      case DatasetKind::Gaussian:
        s.numBlocks = 1 << 14; // 16K entries
        s.accesses = 1 << 14;  // one epoch
        break;
      case DatasetKind::Kaggle:
        s.numBlocks = 1 << 16; // 64K entries (paper: 10.1M)
        s.accesses = 1 << 16;
        break;
      case DatasetKind::Xnli:
        // The XLM-R vocabulary is small enough to simulate at true
        // paper scale even in the default configuration.
        s.numBlocks = 262144;
        s.accesses = 262144;
        break;
    }
    return s;
}

workload::Trace
makeEpochedTrace(workload::DatasetKind kind, std::uint64_t numBlocks,
                 std::uint64_t perEpoch, std::uint64_t epochs,
                 std::uint64_t seed)
{
    using workload::DatasetKind;
    if (kind == DatasetKind::Permutation) {
        // The permutation generator is epoch-structured internally.
        return workload::makeTrace(kind, numBlocks, perEpoch * epochs,
                                   seed);
    }
    workload::Trace out;
    out.numBlocks = numBlocks;
    out.accesses.reserve(perEpoch * epochs);
    for (std::uint64_t e = 0; e < epochs; ++e) {
        const workload::Trace epoch =
            workload::makeTrace(kind, numBlocks, perEpoch,
                                seed + e * 7919);
        out.name = epoch.name;
        out.accesses.insert(out.accesses.end(), epoch.accesses.begin(),
                            epoch.accesses.end());
    }
    return out;
}

void
printHeader(const std::string &title, const std::string &detail)
{
    std::cout << "==============================================="
                 "=================\n"
              << title << "\n"
              << detail << "\n"
              << "==============================================="
                 "=================\n";
}

BenchJson::BenchJson(std::string benchName) : name(std::move(benchName))
{
}

void
BenchJson::add(const std::string &key, double value)
{
    entries.push_back({key, util::jsonNumber(value)});
}

void
BenchJson::add(const std::string &key, std::uint64_t value)
{
    entries.push_back({key, std::to_string(value)});
}

void
BenchJson::add(const std::string &key, const std::string &value)
{
    entries.push_back({key, "\"" + util::jsonEscape(value) + "\""});
}

std::string
BenchJson::write() const
{
    std::string dir;
    if (const char *env = std::getenv("LAORAM_BENCH_JSON_DIR"))
        dir = env;
    std::string path = dir.empty() ? "BENCH_" + name + ".json"
                                   : dir + "/BENCH_" + name + ".json";
    std::ofstream out(path);
    if (!out) {
        warn("cannot write bench metrics to ", path);
        return {};
    }
    out << "{\n  \"bench\": \"" << util::jsonEscape(name) << "\"";
    for (const Entry &e : entries)
        out << ",\n  \"" << util::jsonEscape(e.key)
            << "\": " << e.rendered;
    out << "\n}\n";
    std::cout << "\n[bench-json] wrote " << path << "\n";
    return path;
}

std::vector<oram::BlockId>
randomTrace(std::uint64_t numBlocks, std::uint64_t accesses,
            std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<oram::BlockId> t(accesses);
    for (auto &id : t)
        id = rng.nextBounded(numBlocks);
    return t;
}

} // namespace laoram::bench
