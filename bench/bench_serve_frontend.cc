/**
 * @file
 * Online serving frontend sweep: sessions x shards, measuring
 * end-to-end request latency percentiles (p50/p99/p99.9) and
 * throughput of the coalescer + sharded pipeline serving path.
 *
 * Each cell runs N closed-ish-loop client threads (every client keeps
 * a small window of batches in flight) against a sharded engine; a
 * flush ticker cuts partial windows during lulls. Latency is measured
 * per operation from submit to written-back (the frontend's streaming
 * histogram), so the percentiles include admission queueing and
 * window coalescing — what an online client actually sees.
 *
 * Modes:
 *   default  CI-sized sweep (seconds)
 *   --smoke  one small cell (>= 4 sessions over >= 2 shards) for the
 *            CI regression gate
 *
 * Emits BENCH_serve_frontend.json for cross-PR tracking.
 */

#include <atomic>
#include <chrono>
#include <deque>
#include <iomanip>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/harness.hh"
#include "serve/frontend.hh"
#include "util/cli.hh"
#include "util/rng.hh"

using namespace laoram;

namespace {

struct CellResult
{
    std::uint64_t sessions = 0;
    std::uint64_t shards = 0;
    LatencyReport latency;
    double wallMs = 0.0;
    double opsPerSec = 0.0;
    std::uint64_t windows = 0;
};

CellResult
runCell(std::uint64_t sessions, std::uint64_t shards,
        std::uint64_t blocks, std::uint64_t batchesPerSession,
        std::uint64_t opsPerBatch, std::uint64_t window,
        std::uint64_t seed)
{
    core::ShardedLaoramConfig cfg;
    cfg.engine.base.numBlocks = blocks;
    cfg.engine.base.payloadBytes = 64;
    cfg.engine.base.seed = seed;
    cfg.engine.superblockSize = 4;
    cfg.numShards = static_cast<std::uint32_t>(shards);
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
            // Keep up to 4 batches in flight per session: enough
            // pipelining to fill windows, bounded so latency still
            // reflects a client waiting on its answers.
            std::deque<std::future<serve::BatchResult>> inflight;
            for (std::uint64_t b = 0; b < batchesPerSession; ++b) {
                serve::Batch batch;
                for (std::uint64_t i = 0; i < opsPerBatch; ++i) {
                    const core::BlockId id =
                        rng.nextBool(0.5)
                            ? rng.nextBounded(blocks / 16 + 1)
                            : rng.nextBounded(blocks);
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
    r.sessions = sessions;
    r.shards = shards;
    r.latency = rep.aggregate.latency;
    r.wallMs = rep.aggregate.wallTotalNs / 1e6;
    r.opsPerSec = rep.aggregate.wallTotalNs > 0.0
        ? static_cast<double>(r.latency.requests)
              / (rep.aggregate.wallTotalNs / 1e9)
        : 0.0;
    r.windows = rep.aggregate.windows;
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("bench_serve_frontend",
                   "Online serving latency/throughput: sessions x "
                   "shards sweep");
    auto blocks = args.addUint("blocks", "key-space size", 1 << 12);
    auto batches = args.addUint("batches", "batches per session", 48);
    auto batchOps = args.addUint("batch-ops",
                                 "operations per batch", 32);
    auto window = args.addUint("window",
                               "look-ahead window (operations)", 64);
    auto seed = args.addUint("seed", "traffic seed", 17);
    auto smoke = args.addFlag("smoke",
                              "single small cell (CI regression gate)");
    args.parse(argc, argv);

    struct Cell
    {
        std::uint64_t sessions, shards;
    };
    // Built in place rather than assigned into an empty vector: GCC 12
    // flags the assignment's memmove with a false -Wnonnull under -O2.
    const std::vector<Cell> cells =
        *smoke ? std::vector<Cell>{{4, 2}}
               : std::vector<Cell>{{1, 2}, {4, 2}, {8, 2}, {4, 4}, {8, 4}};
    std::uint64_t nBlocks = *blocks;
    std::uint64_t nBatches = *batches;
    if (*smoke) {
        nBlocks = 1 << 10;
        nBatches = 12;
    }

    bench::printHeader(
        "Online serving frontend — sessions x shards",
        "closed-ish-loop clients; latency is submit-to-written-back "
        "per operation");
    std::cout << nBlocks << " keys, " << nBatches
              << " batches/session x " << *batchOps
              << " ops, window " << *window << "\n\n";

    bench::BenchJson json("serve_frontend");
    json.add("blocks", nBlocks);
    json.add("batches_per_session", nBatches);
    json.add("ops_per_batch", *batchOps);
    json.add("window", *window);

    std::cout << "  sessions shards      ops   kops/s   p50 us   "
                 "p99 us   p99.9 us   max us\n";
    for (const Cell &cell : cells) {
        const CellResult r =
            runCell(cell.sessions, cell.shards, nBlocks, nBatches,
                    *batchOps, *window, *seed);
        std::cout << std::fixed << std::setprecision(1) << "  "
                  << std::setw(8) << r.sessions << std::setw(7)
                  << r.shards << std::setw(9) << r.latency.requests
                  << std::setw(9) << r.opsPerSec / 1e3 << std::setw(9)
                  << r.latency.p50Ns / 1e3 << std::setw(9)
                  << r.latency.p99Ns / 1e3 << std::setw(11)
                  << r.latency.p999Ns / 1e3 << std::setw(9)
                  << r.latency.maxNs / 1e3 << "\n";

        const std::string prefix = "s" + std::to_string(r.sessions)
                                   + "x"
                                   + std::to_string(r.shards);
        json.add(prefix + ".ops", r.latency.requests);
        json.add(prefix + ".wall_ms", r.wallMs);
        json.add(prefix + ".ops_per_sec", r.opsPerSec);
        json.add(prefix + ".windows", r.windows);
        json.add(prefix + ".p50_ns", r.latency.p50Ns);
        json.add(prefix + ".p99_ns", r.latency.p99Ns);
        json.add(prefix + ".p999_ns", r.latency.p999Ns);
        json.add(prefix + ".max_ns", r.latency.maxNs);
    }

    std::cout
        << "\nlatency includes admission queueing and window "
           "coalescing: more sessions\nfill windows faster (less "
           "flush-ticker padding), more shards serve them\nin "
           "parallel — the online version of the paper's "
           "preprocess-while-serving\noverlap.\n";
    json.write();
    return 0;
}
