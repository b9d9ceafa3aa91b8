/**
 * @file
 * Online oblivious serving: concurrent client sessions over a sharded
 * LAORAM through the serving frontend.
 *
 * Each client thread opens a session and runs a closed loop —
 * submit a batch of lookups/updates on Zipf-skewed keys, wait for the
 * result, repeat. The frontend coalesces all sessions' requests into
 * per-shard look-ahead windows (the online stand-in for the paper's
 * pre-scanned trace), a background ticker flushes partial windows so
 * quiet periods never strand a batch, and the run ends with per-request
 * latency percentiles from the engine's own report.
 */

#include <atomic>
#include <chrono>
#include <iostream>
#include <thread>
#include <vector>

#include "obs/obs_cli.hh"
#include "obs/run_report.hh"
#include "serve/frontend.hh"
#include "util/cli.hh"
#include "util/rng.hh"

using namespace laoram;

int
main(int argc, char **argv)
{
    ArgParser args("serving_frontend",
                   "Concurrent client sessions over a sharded LAORAM");
    auto blocks = args.addUint("blocks", "key-space size", 1 << 12);
    auto shards = args.addUint("shards", "ORAM shards", 2);
    auto sessions = args.addUint("sessions", "client sessions", 4);
    auto batches = args.addUint("batches", "batches per session", 64);
    auto batchOps = args.addUint("batch-ops", "operations per batch",
                                 32);
    auto window = args.addUint("window",
                               "look-ahead window (operations)", 64);
    auto flushUs = args.addUint(
        "flush-us", "partial-window flush period (microseconds)", 200);
    auto cacheMb = args.addUint(
        "cache-mb",
        "trusted-client hot-row cache capacity in MiB (0 = disabled)", 0);
    const auto obsArgs = obs::addObsArgs(args);
    args.parse(argc, argv);

    // Activated before the frontend starts; destroyed after the
    // engine (quiesced recorders), flushing metrics/trace outputs.
    const obs::ObsConfig obsCfg = obs::obsConfigFromArgs(obsArgs);
    obs::ObsSession obsSession(obsCfg);

    constexpr std::uint64_t kPayload = 64;

    core::ShardedLaoramConfig cfg;
    cfg.engine.base.numBlocks = *blocks;
    cfg.engine.base.payloadBytes = kPayload;
    cfg.engine.base.seed = 11;
    cfg.engine.superblockSize = 4;
    cfg.numShards = static_cast<std::uint32_t>(*shards);
    cfg.pipeline.windowAccesses = *window;
    cfg.pipeline.mode = core::PipelineMode::Concurrent;
    // Optional trusted-client hot-row cache: hot keys complete at
    // admission time while their scheduled accesses still hit the
    // ORAM as dummies (server trace unchanged).
    cfg.engine.cache.capacityBytes = *cacheMb << 20;
    core::ShardedLaoram engine(cfg);

    std::cout << "online serving: " << *sessions << " sessions x "
              << *batches << " batches x " << *batchOps
              << " ops over " << *shards << " shards ("
              << *blocks << " keys, window " << *window << ")\n\n";

    serve::ServeFrontend frontend(engine);
    frontend.start();

    // Flush ticker: cut partial windows on a fixed period so a lull
    // in traffic (every client waiting on its own batch) never leaves
    // operations stuck in a half-filled window.
    std::atomic<bool> running{true};
    std::thread flusher([&] {
        while (running.load(std::memory_order_relaxed)) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(*flushUs));
            frontend.flush();
        }
    });

    std::vector<std::thread> clients;
    std::atomic<std::uint64_t> lookups{0}, updates{0};
    for (std::uint64_t c = 0; c < *sessions; ++c) {
        clients.emplace_back([&, c] {
            serve::Session session = frontend.session();
            Rng rng(1000 + c);
            for (std::uint64_t b = 0; b < *batches; ++b) {
                serve::Batch batch;
                for (std::uint64_t i = 0; i < *batchOps; ++i) {
                    // Zipf-ish skew: half the traffic on a hot 1/16th
                    // of the key space, like embedding-table rows.
                    const core::BlockId id =
                        rng.nextBool(0.5)
                            ? rng.nextBounded(*blocks / 16 + 1)
                            : rng.nextBounded(*blocks);
                    if (rng.nextBool(0.25)) {
                        batch.ops.push_back(serve::Op::update(
                            id, std::vector<std::uint8_t>(
                                    kPayload,
                                    static_cast<std::uint8_t>(c))));
                        ++updates;
                    } else {
                        batch.ops.push_back(serve::Op::lookup(id));
                        ++lookups;
                    }
                }
                // Closed loop: wait for this batch before the next.
                session.submit(std::move(batch)).get();
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    running.store(false, std::memory_order_relaxed);
    flusher.join();

    const core::ShardedPipelineReport rep = frontend.stop();
    if (!obsCfg.reportJson.empty())
        obs::writeRunReportJson(obsCfg.reportJson, rep);
    const LatencyReport &lat = rep.aggregate.latency;

    std::cout << "served " << lat.requests << " operations ("
              << lookups.load() << " lookups, " << updates.load()
              << " updates) in " << rep.aggregate.wallTotalNs / 1e6
              << " ms wall\n"
              << "windows coalesced: " << rep.aggregate.windows
              << "\n\n"
              << "request latency:  p50 " << lat.p50Ns / 1e3
              << " us   p99 " << lat.p99Ns / 1e3 << " us   p99.9 "
              << lat.p999Ns / 1e3 << " us   max " << lat.maxNs / 1e3
              << " us\n\n";
    if (cfg.engine.cache.enabled()) {
        const cache::CacheStats &cs = rep.aggregate.cache;
        std::cout << "hot cache: " << cs.hits << " hits / "
                  << cs.misses << " misses (hit rate "
                  << cs.hitRate() * 100.0 << "%), "
                  << cs.admissionHits
                  << " ops completed at admission, "
                  << cs.writebackCoalesced
                  << " write-backs coalesced\n\n";
    }
    std::cout
              << "the server saw only per-shard uniform path traffic; "
                 "which session asked\nfor which key — and whether "
                 "two sessions hit the same key — stays hidden\n"
                 "inside the coalesced windows.\n";
    return 0;
}
