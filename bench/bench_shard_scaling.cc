/**
 * @file
 * Shard-scaling bench: aggregate serve throughput vs. shard count.
 *
 * One logical Zipf trace is hash-split across N independent LAORAM
 * trees served concurrently by the shard pool (one two-stage pipeline
 * per shard). Two throughput views are reported:
 *
 *  - simulated: trace accesses / max-over-shards simulated serve
 *    time — the deployment view, where every shard is its own ORAM
 *    server device. Sharding wins twice: shards serve in parallel
 *    (divide the stream) AND each shard's tree is shallower (fewer
 *    blocks -> shorter paths -> less traffic per access), so the
 *    aggregate grows monotonically with the shard count.
 *  - wall clock: host-dependent (thread count vs. cores); printed for
 *    reference.
 */

#include <algorithm>
#include <iomanip>
#include <iostream>
#include <vector>

#include "common/harness.hh"
#include "core/sharded_laoram.hh"
#include "util/cli.hh"
#include "workload/zipf_gen.hh"

using namespace laoram;

int
main(int argc, char **argv)
{
    ArgParser args("bench_shard_scaling",
                   "Aggregate serve throughput vs. LAORAM shard count");
    auto blocks = args.addUint("blocks", "embedding rows", 1 << 16);
    auto accesses = args.addUint("accesses", "trace length", 1 << 16);
    auto window = args.addUint("window", "pipeline window accesses",
                               2048);
    auto superblock = args.addUint("superblock", "LAORAM S", 4);
    auto skew = args.addDouble("skew", "Zipf exponent", 1.0);
    auto seed = args.addUint("seed", "trace + engine seed", 1);
    auto prepThreads = args.addUint(
        "prep-threads", "preprocessor threads per shard pipeline", 1);
    args.parse(argc, argv);

    bench::printHeader(
        "Shard scaling (hash-sharded multi-tree LAORAM)",
        "one Zipf trace split over N trees, one pipeline per shard, "
        "pool-served");

    workload::ZipfParams zp;
    zp.numBlocks = *blocks;
    zp.accesses = *accesses;
    zp.skew = *skew;
    zp.seed = *seed + 100;
    const workload::Trace trace = workload::makeZipfTrace(zp);
    std::cout << *accesses << " Zipf(" << *skew << ") accesses over "
              << *blocks << " rows, window " << *window
              << ", S=" << *superblock << "\n\n";

    std::cout << "  shards   sim ms   acc/simMs   speedup   wall ms   "
                 "acc/wallMs   prep hidden\n";

    bench::BenchJson json("shard_scaling");
    json.add("accesses", *accesses);
    json.add("blocks", *blocks);

    double baselineSimNs = 0.0;
    for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
        core::ShardedLaoramConfig cfg;
        cfg.engine.base.numBlocks = *blocks;
        cfg.engine.base.blockBytes = 128;
        cfg.engine.base.seed = *seed;
        cfg.engine.superblockSize = *superblock;
        cfg.numShards = shards;
        cfg.pipeline.windowAccesses = *window;
        cfg.pipeline.prepThreads =
            std::max<std::uint64_t>(*prepThreads, 1);

        core::ShardedLaoram engine(cfg);
        const auto rep = engine.runTrace(trace.accesses);

        if (shards == 1)
            baselineSimNs = rep.simNs;
        const double accs = static_cast<double>(*accesses);
        std::cout << std::fixed << std::setprecision(3) << "  "
                  << std::setw(6) << shards << std::setw(9)
                  << rep.simNs / 1e6 << std::setw(12)
                  << accs / (rep.simNs / 1e6) << std::setw(10)
                  << baselineSimNs / rep.simNs << std::setw(10)
                  << rep.aggregate.wallTotalNs / 1e6 << std::setw(13)
                  << accs / (rep.aggregate.wallTotalNs / 1e6)
                  << std::setw(13)
                  << rep.aggregate.measuredPrepHiddenFraction * 100.0
                  << "%\n";

        const std::string tag = "shards" + std::to_string(shards);
        json.add(tag + ".sim_ms", rep.simNs / 1e6);
        json.add(tag + ".wall_ms", rep.aggregate.wallTotalNs / 1e6);
        json.add(tag + ".speedup", baselineSimNs / rep.simNs);
        json.add(tag + ".io_stall_ms", rep.aggregate.wallIoNs / 1e6);
        json.add(tag + ".io_serve_fraction",
                 rep.aggregate.ioServeFraction);
        json.add(tag + ".prep_threads_total",
                 static_cast<std::uint64_t>(rep.aggregate.prepThreads));
        json.add(tag + ".reorder_stall_ms",
                 rep.aggregate.wallReorderStallNs / 1e6);
    }
    json.write();

    std::cout << "\nAggregate simulated throughput rises "
                 "monotonically with the shard\ncount: concurrent "
                 "shards split the stream N ways and each shard's\n"
                 "smaller tree makes every path cheaper. Wall-clock "
                 "scaling tracks the\nhost's spare cores.\n";
    return 0;
}
