/**
 * @file
 * Reproduces the memory-neutral comparison of paper §VIII-C: a
 * uniform tree with bucket size 6 versus a fat tree with buckets 9
 * (root) -> 5 (leaf). The paper reports the fat tree using 16.6 %
 * LESS memory while issuing 12.4 % FEWER dummy reads — i.e. fat wins
 * even with a memory handicap, because capacity near the root is
 * where write-back pressure concentrates.
 */

#include <iostream>

#include "common/harness.hh"
#include "core/laoram_client.hh"
#include "util/cli.hh"
#include "util/table.hh"

using namespace laoram;

namespace {

struct Config
{
    const char *label;
    oram::BucketProfile profile;
};

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("bench_memneutral_ablation",
                   "Section VIII-C memory-neutral fat-tree study");
    auto entries = args.addUint("entries", "embedding entries",
                                1 << 14);
    auto epochs = args.addUint("epochs", "permutation epochs", 6);
    auto superblock = args.addUint("superblock", "superblock size", 8);
    auto seed = args.addUint("seed", "experiment seed", 31);
    args.parse(argc, argv);

    bench::printHeader(
        "Section VIII-C — memory-neutral fat vs uniform tree",
        "uniform Z=6 vs fat 9->5; paper: fat uses 16.6% less memory "
        "yet triggers 12.4% fewer dummy reads");

    const workload::Trace trace = bench::makeEpochedTrace(
        workload::DatasetKind::Permutation, *entries, *entries,
        *epochs, *seed);

    const Config configs[] = {
        {"uniform Z=6", oram::BucketProfile::uniform(6)},
        {"fat 9->5", oram::BucketProfile::linear(5, 9)},
    };

    TextTable table({"tree", "server memory", "dummy reads",
                     "dummy/access", "sim ms"});
    std::uint64_t mem[2], dummies[2];
    int i = 0;
    for (const Config &c : configs) {
        core::LaoramConfig cfg;
        cfg.base.numBlocks = *entries;
        cfg.base.blockBytes = 128;
        cfg.base.profile = c.profile;
        cfg.base.seed = *seed;
        cfg.base.treetopLevels = 0; // the paper's accounting
        cfg.superblockSize = *superblock;
        core::Laoram engine(cfg);
        engine.runTrace(trace.accesses);

        mem[i] = engine.geometry().serverBytes();
        dummies[i] = engine.meter().counters().dummyReads;
        table.addRow({
            c.label,
            TextTable::bytesCell(mem[i]),
            TextTable::cell(dummies[i]),
            TextTable::cell(
                engine.meter().counters().dummyReadsPerAccess(), 3),
            TextTable::cell(engine.meter().clock().milliseconds(), 2),
        });
        ++i;
    }
    table.print(std::cout);

    const double mem_saving =
        1.0 - static_cast<double>(mem[1]) / static_cast<double>(mem[0]);
    const double dummy_saving = dummies[0] == 0
        ? 0.0
        : 1.0
            - static_cast<double>(dummies[1])
                / static_cast<double>(dummies[0]);
    std::cout << "\nfat tree memory saving:      "
              << TextTable::cell(mem_saving * 100.0, 1)
              << "% (paper: 16.6%)\n"
              << "fat tree dummy-read saving:  "
              << TextTable::cell(dummy_saving * 100.0, 1)
              << "% (paper: 12.4%)\n"
              << "\npaper shape check: the fat tree must win on BOTH "
                 "axes simultaneously.\n";
    return 0;
}
