/**
 * @file
 * Ablation: flat client-resident position map (the paper's §III
 * design — the map lives in trainer-GPU HBM) versus the classic
 * recursive position map (PathORAM §6).
 *
 * Quantifies the trade the paper makes implicitly: recursion shrinks
 * trusted client memory by orders of magnitude but adds one path
 * access per level to every lookup — overhead LAORAM's performance
 * story could not absorb.
 */

#include <iostream>

#include "common/harness.hh"
#include "oram/path_oram.hh"
#include "oram/recursive_posmap.hh"
#include "util/cli.hh"
#include "util/rng.hh"
#include "util/table.hh"

using namespace laoram;

int
main(int argc, char **argv)
{
    ArgParser args("bench_recursion_ablation",
                   "flat vs recursive position map (paper Section "
                   "III design choice)");
    auto entries = args.addUint("entries", "data blocks", 1 << 16);
    auto accesses = args.addUint("accesses", "trace length", 5000);
    auto packing = args.addUint("packing", "positions per map block",
                                16);
    auto seed = args.addUint("seed", "experiment seed", 61);
    args.parse(argc, argv);

    bench::printHeader(
        "Ablation — flat (HBM) vs recursive position map",
        "per-access traffic and client memory; recursion chi="
            + std::to_string(*packing));

    Rng rng(*seed);
    std::vector<oram::BlockId> trace;
    for (std::uint64_t i = 0; i < *accesses; ++i)
        trace.push_back(rng.nextBounded(*entries));

    oram::EngineConfig cfg;
    cfg.numBlocks = *entries;
    cfg.blockBytes = 128;
    cfg.seed = *seed;
    cfg.treetopLevels = 0; // the paper's accounting: no treetop

    TextTable table({"client", "map levels", "client map bytes",
                     "bytes/access", "sim us/access"});

    // Flat map (the paper's design).
    {
        oram::PathOram flat(cfg);
        flat.runTrace(trace);
        const auto &c = flat.meter().counters();
        table.addRow({
            "flat (paper)",
            "0",
            TextTable::bytesCell(*entries * sizeof(oram::Leaf)),
            TextTable::cell(static_cast<double>(c.totalBytes())
                                / static_cast<double>(trace.size()),
                            0),
            TextTable::cell(flat.meter().clock().microseconds()
                                / static_cast<double>(trace.size()),
                            2),
        });
    }

    // Recursive map at two thresholds.
    for (std::uint64_t threshold : {1024ULL, 64ULL}) {
        oram::RecursiveConfig rc;
        rc.packing = *packing;
        rc.directThreshold = threshold;
        rc.seed = *seed;
        oram::RecursivePathOram rec(cfg, rc);
        rec.runTrace(trace);
        const auto &c = rec.meter().counters();
        table.addRow({
            "recursive (thr " + std::to_string(threshold) + ")",
            TextTable::cell(rec.positionMap().oramLevels()),
            TextTable::bytesCell(rec.positionMap().clientBytes()),
            TextTable::cell(static_cast<double>(c.totalBytes())
                                / static_cast<double>(trace.size()),
                            0),
            TextTable::cell(rec.meter().clock().microseconds()
                                / static_cast<double>(trace.size()),
                            2),
        });
    }

    table.print(std::cout);
    std::cout << "\ntakeaway: the flat map costs O(N) trusted memory "
                 "but zero extra traffic;\neach recursion level adds "
                 "a full (small-tree) path access per lookup — the\n"
                 "overhead the paper sidesteps by spending GPU HBM on "
                 "the flat map.\n";
    return 0;
}
