/**
 * @file
 * Trusted-client hot-embedding cache sweep: Zipf skew x cache size,
 * measuring hit rate and the end-to-end serving win over cache-off.
 *
 * Each cell runs closed-loop client sessions against the serving
 * frontend over Zipf-distributed keys (ranks scattered over the id
 * space, like real embedding tables). Ops on cache-resident rows
 * complete at admission time — DRAM speed — while their scheduled
 * ORAM accesses still execute as dummies, so the server-visible
 * trace is identical in every cell. The cache-off baseline of each
 * skew row anchors the throughput/latency deltas.
 *
 * Modes:
 *   default  CI-sized sweep: skew {0.8, 0.99, 1.2} x cache {0, 1, 4} MiB
 *   --smoke  Zipf(0.99) at {0, 1} MiB; exits non-zero unless the
 *            cached cell's hit rate exceeds 50% (CI regression gate)
 *
 * Emits BENCH_cache_hit.json for cross-PR tracking.
 */

#include <atomic>
#include <chrono>
#include <deque>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/harness.hh"
#include "serve/frontend.hh"
#include "util/cli.hh"
#include "util/rng.hh"
#include "workload/zipf_gen.hh"

using namespace laoram;

namespace {

struct CellResult
{
    double skew = 0.0;
    std::uint64_t cacheMb = 0;
    cache::CacheStats cache;
    LatencyReport latency;
    double wallMs = 0.0;
    double opsPerSec = 0.0;
};

CellResult
runCell(double skew, std::uint64_t cacheMb, std::uint64_t sessions,
        std::uint64_t blocks, std::uint64_t batchesPerSession,
        std::uint64_t opsPerBatch, std::uint64_t window,
        std::uint64_t seed)
{
    core::ShardedLaoramConfig cfg;
    cfg.engine.base.numBlocks = blocks;
    cfg.engine.base.payloadBytes = 64;
    cfg.engine.base.seed = seed;
    cfg.engine.superblockSize = 4;
    cfg.engine.cache.capacityBytes = cacheMb << 20;
    cfg.numShards = 2;
    cfg.pipeline.windowAccesses = window;
    cfg.pipeline.mode = core::PipelineMode::Concurrent;
    core::ShardedLaoram engine(cfg);

    serve::ServeFrontend frontend(engine);
    frontend.start();

    std::atomic<bool> running{true};
    std::thread flusher([&] {
        while (running.load(std::memory_order_relaxed)) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(200));
            frontend.flush();
        }
    });

    std::vector<std::thread> clients;
    for (std::uint64_t c = 0; c < sessions; ++c) {
        clients.emplace_back([&, c] {
            serve::Session session = frontend.session();
            Rng rng(seed * 1000 + c);
            const ZipfSampler zipf(blocks, skew);
            const workload::RankScatterer scatter(blocks);
            // Up to 4 batches in flight: enough pipelining to fill
            // windows, bounded so cache-accelerated completions feed
            // back into submission rate (the closed-loop win).
            std::deque<std::future<serve::BatchResult>> inflight;
            for (std::uint64_t b = 0; b < batchesPerSession; ++b) {
                serve::Batch batch;
                for (std::uint64_t i = 0; i < opsPerBatch; ++i) {
                    const core::BlockId id = scatter(zipf(rng));
                    if (rng.nextBool(0.25))
                        batch.ops.push_back(serve::Op::update(
                            id, std::vector<std::uint8_t>(
                                    64,
                                    static_cast<std::uint8_t>(b))));
                    else
                        batch.ops.push_back(serve::Op::lookup(id));
                }
                inflight.push_back(session.submit(std::move(batch)));
                while (inflight.size() > 4) {
                    inflight.front().get();
                    inflight.pop_front();
                }
            }
            while (!inflight.empty()) {
                inflight.front().get();
                inflight.pop_front();
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    running.store(false, std::memory_order_relaxed);
    flusher.join();

    const core::ShardedPipelineReport rep = frontend.stop();

    CellResult r;
    r.skew = skew;
    r.cacheMb = cacheMb;
    r.cache = rep.aggregate.cache;
    r.latency = rep.aggregate.latency;
    r.wallMs = rep.aggregate.wallTotalNs / 1e6;
    r.opsPerSec = rep.aggregate.wallTotalNs > 0.0
        ? static_cast<double>(r.latency.requests)
              / (rep.aggregate.wallTotalNs / 1e9)
        : 0.0;
    return r;
}

std::string
skewKey(double skew)
{
    std::ostringstream os;
    os << skew;
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("bench_cache_hit",
                   "Hot-embedding cache: Zipf skew x cache size "
                   "sweep");
    auto blocks = args.addUint("blocks", "key-space size", 1 << 14);
    auto sessions = args.addUint("sessions", "client sessions", 4);
    auto batches = args.addUint("batches", "batches per session", 32);
    auto batchOps = args.addUint("batch-ops",
                                 "operations per batch", 32);
    auto window = args.addUint("window",
                               "look-ahead window (operations)", 64);
    auto seed = args.addUint("seed", "traffic seed", 23);
    auto smoke = args.addFlag(
        "smoke", "Zipf(0.99) only; gate hit rate > 50% (CI)");
    args.parse(argc, argv);

    struct Cell
    {
        double skew;
        std::uint64_t cacheMb;
    };
    std::vector<Cell> cells;
    std::uint64_t nBlocks = *blocks;
    std::uint64_t nBatches = *batches;
    if (*smoke) {
        nBlocks = 1 << 12;
        nBatches = 12;
        cells = {{0.99, 0}, {0.99, 1}};
    } else {
        for (double skew : {0.8, 0.99, 1.2})
            for (std::uint64_t mb : {std::uint64_t{0},
                                     std::uint64_t{1},
                                     std::uint64_t{4}})
                cells.push_back({skew, mb});
    }

    bench::printHeader(
        "Hot-embedding cache — Zipf skew x cache size",
        "ops on resident rows complete at admission; scheduled ORAM "
        "accesses still run as dummies (server trace unchanged)");
    std::cout << nBlocks << " keys, " << *sessions << " sessions x "
              << nBatches << " batches x " << *batchOps
              << " ops, window " << *window << "\n\n";

    bench::BenchJson json("cache_hit");
    json.add("blocks", nBlocks);
    json.add("sessions", *sessions);
    json.add("batches_per_session", nBatches);
    json.add("ops_per_batch", *batchOps);
    json.add("window", *window);

    std::cout << "  skew   cache MB      ops   hit %   kops/s   "
                 "speedup   p50 us   p99 us\n";
    // Cache-off ops/sec and p50 per skew row, the speedup anchors.
    double baselineOps = 0.0;
    double baselineP50 = 0.0;
    double gatedHitRate = -1.0;
    double gatedSpeedup = 0.0;
    for (const Cell &cell : cells) {
        const CellResult r =
            runCell(cell.skew, cell.cacheMb, *sessions, nBlocks,
                    nBatches, *batchOps, *window, *seed);
        if (cell.cacheMb == 0) {
            baselineOps = r.opsPerSec;
            baselineP50 = static_cast<double>(r.latency.p50Ns);
        }
        const double speedup =
            baselineOps > 0.0 ? r.opsPerSec / baselineOps : 0.0;
        const double p50Speedup = r.latency.p50Ns > 0
            ? baselineP50 / static_cast<double>(r.latency.p50Ns)
            : 0.0;
        std::cout << std::fixed << std::setprecision(2) << "  "
                  << std::setw(4) << r.skew << std::setw(11)
                  << r.cacheMb << std::setw(9) << r.latency.requests
                  << std::setw(8) << r.cache.hitRate() * 100.0
                  << std::setw(9) << r.opsPerSec / 1e3
                  << std::setw(10) << speedup << std::setw(9)
                  << r.latency.p50Ns / 1e3 << std::setw(9)
                  << r.latency.p99Ns / 1e3 << "\n";

        const std::string prefix = "z" + skewKey(r.skew) + ".mb"
                                   + std::to_string(r.cacheMb);
        json.add(prefix + ".ops", r.latency.requests);
        json.add(prefix + ".hit_rate", r.cache.hitRate());
        json.add(prefix + ".hits", r.cache.hits);
        json.add(prefix + ".misses", r.cache.misses);
        json.add(prefix + ".admission_hits", r.cache.admissionHits);
        json.add(prefix + ".writeback_coalesced",
                 r.cache.writebackCoalesced);
        json.add(prefix + ".evictions", r.cache.evictions);
        json.add(prefix + ".wall_ms", r.wallMs);
        json.add(prefix + ".ops_per_sec", r.opsPerSec);
        json.add(prefix + ".speedup_vs_off", speedup);
        json.add(prefix + ".p50_speedup_vs_off", p50Speedup);
        json.add(prefix + ".p50_ns", r.latency.p50Ns);
        json.add(prefix + ".p99_ns", r.latency.p99Ns);
        if (cell.cacheMb > 0 && r.skew > 0.98 && r.skew < 1.0
            && gatedHitRate < 0.0) {
            gatedHitRate = r.cache.hitRate();
            gatedSpeedup = speedup;
        }
    }

    std::cout
        << "\nhigher skew concentrates traffic on fewer rows, so a "
           "fixed-size cache\nabsorbs more of it; every cell issues "
           "the same scheduled ORAM accesses —\nthe cache changes "
           "client latency, never the server-visible trace.\n";
    json.write();

    if (*smoke) {
        if (gatedHitRate <= 0.5) {
            std::cerr << "SMOKE FAIL: Zipf(0.99) hit rate "
                      << gatedHitRate * 100.0 << "% <= 50%\n";
            return 1;
        }
        std::cout << "\nSMOKE OK: Zipf(0.99) hit rate "
                  << gatedHitRate * 100.0 << "%, speedup "
                  << gatedSpeedup << "x vs cache-off\n";
    }
    return 0;
}
