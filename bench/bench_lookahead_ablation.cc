/**
 * @file
 * Ablation: how far ahead must LAORAM peek?
 *
 * Sweeps the look-ahead window (accesses preprocessed per batch of
 * bins) and the training-batch size, measuring path reads per access
 * and simulated time. Small windows starve the future-linking (every
 * block's next occurrence falls outside the window, degrading LAORAM
 * toward PathORAM); the paper's "scan an entire epoch" corresponds
 * to the right edge of the sweep. The horizon sweep keeps a short
 * serving window and links each window's last occurrences to later
 * windows instead (LaoramConfig::lookaheadHorizon), which recovers
 * the long window's path reads without its per-window preprocessing.
 * The window and batch sweeps pin horizon 0, the in-window linking
 * they measure. Also exercises the dummy-eviction threshold,
 * completing the design-choice ablations DESIGN.md lists.
 */

#include <iostream>

#include "common/harness.hh"
#include "core/laoram_client.hh"
#include "util/cli.hh"
#include "util/table.hh"

using namespace laoram;

namespace {

struct Result
{
    double readsPerAccess;
    double dummiesPerAccess;
    std::uint64_t stashPeak;
    double simMs;
};

Result
run(const workload::Trace &trace, std::uint64_t window,
    std::uint64_t batch, std::uint64_t high, std::uint64_t low,
    std::uint64_t horizon = 0)
{
    core::LaoramConfig cfg;
    cfg.base.numBlocks = trace.numBlocks;
    cfg.base.blockBytes = 128;
    cfg.base.seed = 17;
    cfg.base.treetopLevels = 0; // the paper's accounting
    cfg.base.stashHighWater = high;
    cfg.base.stashLowWater = low;
    cfg.superblockSize = 4;
    cfg.lookaheadWindow = window;
    cfg.lookaheadHorizon = horizon;
    cfg.batchAccesses = batch;
    core::Laoram engine(cfg);
    engine.runTrace(trace.accesses);
    const auto &c = engine.meter().counters();
    return {c.pathReadsPerAccess(), c.dummyReadsPerAccess(), c.stashPeak,
            engine.meter().clock().milliseconds()};
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("bench_lookahead_ablation",
                   "look-ahead window / batch size / eviction "
                   "threshold sweeps");
    auto entries = args.addUint("entries", "embedding entries",
                                1 << 14);
    auto epochs = args.addUint("epochs", "training epochs", 6);
    auto seed = args.addUint("seed", "trace seed", 71);
    args.parse(argc, argv);

    const workload::Trace trace = bench::makeEpochedTrace(
        workload::DatasetKind::Kaggle, *entries, *entries, *epochs,
        *seed);

    bench::printHeader(
        "Ablation — look-ahead window size",
        "Kaggle-like trace, S=4; window 0 = whole trace (paper: 'an "
        "entire epoch')");
    {
        TextTable t({"window (accesses)", "pathReads/acc",
                     "dummy/acc", "sim ms"});
        for (std::uint64_t w : {256ULL, 1024ULL, 4096ULL, 16384ULL,
                                65536ULL, 0ULL}) {
            const Result r = run(trace, w, 0, 500, 50);
            t.addRow({w == 0 ? "whole trace" : std::to_string(w),
                      TextTable::cell(r.readsPerAccess, 3),
                      TextTable::cell(r.dummiesPerAccess, 3),
                      TextTable::cell(r.simMs, 1)});
        }
        t.print(std::cout);
        std::cout << "shape: longer look-ahead => more future-linked "
                     "remaps => fewer path reads.\n\n";
    }

    bench::printHeader(
        "Ablation — look-ahead horizon at a fixed window",
        "2048-access windows, S=4; each window's last occurrences "
        "link to later windows' bins");
    {
        TextTable t({"horizon (accesses)", "pathReads/acc", "dummy/acc",
                     "stash peak", "sim ms"});
        for (const std::uint64_t h :
             {std::uint64_t{0}, std::uint64_t{65536}, core::kWholeStream}) {
            const Result r = run(trace, 2048, 0, 500, 50, h);
            t.addRow({h == core::kWholeStream ? "whole stream"
                                              : std::to_string(h),
                      TextTable::cell(r.readsPerAccess, 3),
                      TextTable::cell(r.dummiesPerAccess, 3),
                      TextTable::cell(r.stashPeak),
                      TextTable::cell(r.simMs, 1)});
        }
        t.print(std::cout);
        std::cout << "shape: a longer horizon links more members across "
                     "windows => fewer path reads\nat the same serving "
                     "window.\n\n";
    }

    bench::printHeader(
        "Ablation — training-batch size",
        "paper §IV-A batches reads for the upcoming training batch");
    {
        TextTable t({"batch (accesses)", "pathReads/acc", "dummy/acc",
                     "sim ms"});
        for (std::uint64_t b : {0ULL, 64ULL, 256ULL, 1024ULL,
                                4096ULL}) {
            const Result r = run(trace, 0, b, 500, 50);
            t.addRow({b == 0 ? "per-bin" : std::to_string(b),
                      TextTable::cell(r.readsPerAccess, 3),
                      TextTable::cell(r.dummiesPerAccess, 3),
                      TextTable::cell(r.simMs, 1)});
        }
        t.print(std::cout);
        std::cout << "shape: batching amortises round trips and "
                     "relieves stash pressure via the\nunion "
                     "write-back.\n\n";
    }

    bench::printHeader(
        "Ablation — background-eviction threshold",
        "paper §VIII-E uses trigger 500 -> drain 50");
    {
        TextTable t({"high/low water", "dummy/acc", "stash peak",
                     "sim ms"});
        struct HW { std::uint64_t hi, lo; };
        for (HW hw : {HW{100, 10}, HW{500, 50}, HW{2000, 200},
                      HW{100000, 1000}}) {
            core::LaoramConfig cfg;
            cfg.base.numBlocks = trace.numBlocks;
            cfg.base.blockBytes = 128;
            cfg.base.seed = 17;
            cfg.base.treetopLevels = 0;
            cfg.base.stashHighWater = hw.hi;
            cfg.base.stashLowWater = hw.lo;
            cfg.superblockSize = 8; // pressure-heavy configuration
            core::Laoram engine(cfg);
            engine.runTrace(trace.accesses);
            const auto &c = engine.meter().counters();
            t.addRow({std::to_string(hw.hi) + "/"
                          + std::to_string(hw.lo),
                      TextTable::cell(c.dummyReadsPerAccess(), 3),
                      TextTable::cell(c.stashPeak),
                      TextTable::cell(
                          engine.meter().clock().milliseconds(), 1)});
        }
        t.print(std::cout);
        std::cout << "shape: tighter thresholds trade dummy-read "
                     "bandwidth for client memory.\n";
    }
    return 0;
}
