/**
 * @file
 * Full-model DLRM: all 26 Criteo-like embedding tables protected by
 * LAORAM — either one tree, or hash/table-sharded across several.
 *
 * The paper evaluates its largest table; a deployment must hide *all*
 * table accesses — otherwise which-table-was-touched leaks which
 * categorical feature fired. Flattening every table into a single
 * block space (train::TableSet) makes cross-table patterns mutually
 * indistinguishable, and the look-ahead preprocessor coalesces the
 * per-sample 26-row gather into superblocks almost perfectly: a
 * sample's rows are consecutive in the future stream, which is
 * exactly what a bin is.
 *
 * With --shards N, TableSet::shardPlan routes whole tables onto N
 * independent LAORAM trees (big tables spread first), and a pool of
 * serving threads trains all shards concurrently — each shard with
 * its own two-stage pipeline.
 */

#include <algorithm>
#include <iostream>
#include <vector>

#include "core/laoram_client.hh"
#include "core/sharded_laoram.hh"
#include "obs/obs_cli.hh"
#include "obs/run_report.hh"
#include "oram/path_oram.hh"
#include "storage/storage_cli.hh"
#include "train/table_set.hh"
#include "util/cli.hh"
#include "workload/dlrm_multi.hh"

using namespace laoram;

int
main(int argc, char **argv)
{
    ArgParser args("multitable_dlrm",
                   "26-table DLRM behind sharded LAORAM trees");
    auto largest = args.addUint("largest", "rows of the biggest table",
                                1 << 15);
    auto samples = args.addUint("samples", "training samples", 4096);
    auto epochs = args.addUint("epochs", "training epochs", 3);
    auto shards = args.addUint("shards", "ORAM trees (tables routed "
                                         "by shardPlan)",
                               4);
    auto prepThreads = args.addUint(
        "prep-threads",
        "preprocessor threads per shard pipeline (determinism holds "
        "for any value)",
        1);
    const auto storageArgs =
        storage::addStorageArgs(args, "multitable_dlrm.tree");
    auto cacheMb = args.addUint(
        "cache-mb",
        "trusted-client hot-row cache capacity in MiB (0 = disabled)", 0);
    const auto obsArgs = obs::addObsArgs(args);
    args.parse(argc, argv);

    // Activated before any ORAM traffic; destroyed after the engines
    // (quiesced recorders), flushing metrics/trace outputs.
    const obs::ObsConfig obsCfg = obs::obsConfigFromArgs(obsArgs);
    obs::ObsSession obsSession(obsCfg);

    const train::TableSet tables =
        train::TableSet::criteoLike(*largest);
    std::cout << "model: " << tables.numTables()
              << " embedding tables, " << tables.totalBlocks()
              << " total rows (largest " << tables.tableRows(0)
              << ")\n";

    // One trace = `epochs` passes over the training set; per sample
    // one lookup in every table.
    workload::DlrmMultiParams dp;
    dp.samples = *samples;
    std::vector<oram::BlockId> trace;
    for (std::uint64_t e = 0; e < *epochs; ++e) {
        dp.seed = 100 + e;
        const auto epoch = workload::makeDlrmMultiTrace(tables, dp);
        trace.insert(trace.end(), epoch.accesses.begin(),
                     epoch.accesses.end());
    }
    std::cout << "trace: " << trace.size() << " row accesses ("
              << *samples << " samples x " << tables.numTables()
              << " tables x " << *epochs << " epochs)\n\n";

    // LAORAM with S = 8, sharded: whole tables are routed to shards
    // (balanced by rows), every shard is its own tree + two-stage
    // pipeline, and the serving pool trains all shards concurrently.
    const auto numShards =
        static_cast<std::uint32_t>(std::max<std::uint64_t>(*shards, 1));
    core::ShardedLaoramConfig scfg;
    scfg.engine.base.numBlocks = tables.totalBlocks();
    scfg.engine.base.blockBytes = 128;
    scfg.engine.base.profile = oram::BucketProfile::fat(4);
    scfg.engine.base.seed = 7;
    // Each shard tree derives its own backing file from this path
    // (shardEngineConfig suffixes the shard seed); the checkpoint
    // sidecar follows the same rule, with the ShardedLaoram manifest
    // at the unsuffixed base path.
    scfg.engine.base.storage = storage::storageConfigFromArgs(
        storageArgs, &scfg.engine.base.checkpoint);
    scfg.engine.superblockSize = 8;
    scfg.engine.batchAccesses = tables.numTables() * 16; // 16 samples
    // Optional trusted-client hot-row cache. The cache accelerates
    // payload service, so enabling it switches this (otherwise
    // metadata-only) simulation to carrying real embedding rows.
    scfg.engine.cache.capacityBytes = *cacheMb << 20;
    if (scfg.engine.cache.enabled())
        scfg.engine.base.payloadBytes = 64;
    scfg.numShards = numShards;
    // Window sized for the per-shard sub-trace (~1/numShards of the
    // stream): each shard pipeline needs several windows to overlap
    // preprocessing with serving.
    scfg.pipeline.windowAccesses = std::max<std::uint64_t>(
        tables.numTables() * *samples / (4 * numShards), 1);
    scfg.pipeline.prepThreads =
        std::max<std::uint64_t>(*prepThreads, 1);

    const auto plan = tables.shardPlan(numShards);
    core::ShardedLaoram laoram(
        scfg, core::ShardSplitter::fromAssignment(
                  tables.blockShardAssignment(plan), numShards));
    if (scfg.engine.base.checkpoint.restore) {
        std::cout << "restored " << numShards
                  << "-shard trusted state from "
                  << scfg.engine.base.checkpoint.path
                  << " (manifest + per-shard sidecars)\n";
    }

    const auto rep = laoram.runTrace(trace);
    if (!obsCfg.reportJson.empty())
        obs::writeRunReportJson(obsCfg.reportJson, rep);

    // Durable shutdown: manifest at the base path, one engine sidecar
    // per shard tree, so a --restore --storage-keep run resumes the
    // trained store.
    if (!scfg.engine.base.checkpoint.path.empty()) {
        laoram.checkpointToFile(scfg.engine.base.checkpoint.path);
        std::cout << "checkpointed sharded trusted state to "
                  << scfg.engine.base.checkpoint.path << "\n";
    }

    std::cout << "sharding: " << numShards
              << " trees; tables per shard:";
    for (std::uint32_t s = 0; s < numShards; ++s) {
        std::uint64_t count = 0;
        for (std::uint32_t p : plan)
            count += p == s ? 1 : 0;
        std::cout << " " << count;
    }
    std::cout << "\npipeline: " << rep.aggregate.windows
              << " windows over " << numShards << " shard pipelines ("
              << scfg.pipeline.prepThreads
              << " prep threads each, reorder stall "
              << rep.aggregate.wallReorderStallNs / 1e6
              << " ms), measured prep hidden "
              << rep.aggregate.measuredPrepHiddenFraction * 100.0
              << "%\n";
    for (std::uint32_t s = 0; s < numShards; ++s) {
        std::cout << "  shard " << s << ": "
                  << laoram.splitter().shardBlocks(s) << " rows, "
                  << rep.shards[s].accesses << " accesses, sim "
                  << rep.shards[s].pipeline.simNs / 1e6 << " ms\n";
    }
    if (scfg.engine.cache.enabled()) {
        std::cout << "hot cache: " << rep.aggregate.cache.hits
                  << " hits / " << rep.aggregate.cache.misses
                  << " misses (hit rate "
                  << rep.aggregate.cache.hitRate() * 100.0 << "%), "
                  << rep.aggregate.cache.evictions
                  << " evictions across " << numShards
                  << " shard caches — server traffic unchanged\n";
    }

    const auto hist = tables.accessHistogram(trace);
    const auto hottest =
        std::max_element(hist.begin(), hist.end()) - hist.begin();
    std::cout << "per-table traffic: table " << hottest << " peaks at "
              << hist[hottest] << " of " << trace.size()
              << " accesses — indistinguishable on the wire\n";

    oram::EngineConfig pcfg = scfg.engine.base;
    pcfg.profile = oram::BucketProfile::uniform(4);
    // The throwaway baseline is a DRAM comparison run, never a
    // durable store: no tree file at the (unsuffixed) base path to
    // collide with across --storage-keep runs, and no checkpoint —
    // the sidecar at the base path is the *sharded manifest*, not an
    // engine snapshot. Simulated-time numbers are backend-invariant.
    pcfg.storage = {};
    pcfg.checkpoint = {};
    oram::PathOram baseline(pcfg);
    baseline.runTrace(trace);

    const auto lc = laoram.totalCounters();
    std::cout << "LAORAM x" << numShards
              << ": pathReads/access=" << lc.pathReadsPerAccess()
              << " dummy/access=" << lc.dummyReadsPerAccess()
              << " simMs=" << laoram.simNs() / 1e6
              << " (concurrent shards)\n";
    const auto &pc = baseline.meter().counters();
    std::cout << "PathORAM : pathReads/access="
              << pc.pathReadsPerAccess()
              << " simMs=" << baseline.meter().clock().milliseconds()
              << "\n";
    std::cout << "\nspeedup protecting the FULL model: "
              << baseline.meter().clock().nanoseconds()
                     / laoram.simNs()
              << "x\n"
              << "\nNote how sample-aligned gathers make look-ahead "
                 "binning especially\neffective: the 26 rows of a "
                 "sample are adjacent in the future stream,\nso "
                 "whole samples collapse onto a handful of paths — "
                 "and table-sharding\nsplits that stream over "
                 "independent trees serving in parallel.\n";
    return 0;
}
