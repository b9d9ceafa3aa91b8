/**
 * @file
 * The online workload, serve-zipf-cache: closed-loop client sessions
 * through ServeFrontend over a 2-shard encrypted ShardedLaoram on DRAM
 * whose trees fit in L3, with Zipf 0.99 keys scattered over the table,
 * 20 % updates, and a hot cache sized to hold the hot set.
 *
 * Load: 8 sessions driven by one client thread; every session keeps at
 * most 4 batches of 32 operations in flight, and the client waits for
 * the oldest batch of all before submitting more (closed loop). A
 * flush ticker cuts partial windows every kFlushEveryUs, which is part
 * of the workload: the frontend never cuts a partial window by itself.
 *
 * The traced run adds a remote phase for the net layer: the same
 * frontend shape and cache capacity with uniform keys and 50 %
 * updates (so the cache only costs), each shard's tree behind its own
 * in-process storage node (RemoteKvServer + net::NodeListener) on
 * loopback TCP.
 *
 * Check: every row is preloaded with (id, version 0, ~id) and an
 * update writes (id, version, ~id). Only the row's owning session
 * (id mod sessions) updates it, in per-session submission order, so a
 * lookup must return the row's own id and a version at least that of
 * the last update acknowledged before the lookup was submitted (or
 * submitted earlier by the same session) and at most the newest
 * update submitted so far.
 */

#include <algorithm>
#include <atomic>
#include <cstring>
#include <deque>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "crypto/encryptor.hh"
#include "net/node_server.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/frontend.hh"
#include "storage/remote_backend.hh"
#include "util/rng.hh"
#include "workload/zipf_gen.hh"

using namespace laoram;

namespace perfbench {

namespace {

using core::BlockId;

constexpr std::uint64_t kSessions = 8;
constexpr std::uint64_t kMaxInFlight = 4;
constexpr std::uint64_t kOpsPerBatch = 32;
constexpr std::uint64_t kBlockBytes = 128;
constexpr std::uint64_t kPayloadBytes = 64;
constexpr std::uint32_t kShards = 2;
constexpr std::uint64_t kWindow = 64; ///< pipeline window per shard
constexpr int kSetups = 3;

/**
 * Sizes the pre-built op streams: about five times the ~21 k ops/s
 * measured on a 4-vCPU Xeon VM. A run that uses a stream up before
 * its deadline says so in a note.
 */
constexpr double kMaxOpsPerSec = 1e5;

/**
 * Flush cadence. A flush marker cuts the open window wherever it sits
 * in the admission stream, so the cadence must leave time for a shard
 * to receive a full window (about 100 ops per 10 ms per shard here);
 * then windows fill by themselves and the ticker only cuts the tail.
 */
constexpr std::int64_t kFlushEveryUs = 10'000;

/** The scale-dependent sizes. */
struct Table
{
    std::uint64_t rows = 0;
    std::uint64_t cacheRowsPerShard = 0;
};

Table
tableFor(Scale scale)
{
    return scale == Scale::Full ? Table{1 << 15, 2048} : Table{1 << 10, 64};
}

/** Key distribution and update share of a phase's op streams. */
struct Mix
{
    bool zipf = true;
    double updateFrac = 0.2;
};

constexpr Mix kZipfMix{true, 0.2};
constexpr Mix kUniformMix{false, 0.5};

/** One pre-generated operation: version 0 = lookup, else update. */
struct PlannedOp
{
    BlockId id = 0;
    std::uint64_t version = 0;
};

using Plans = std::vector<std::vector<PlannedOp>>;

std::uint64_t
ownerOf(BlockId id)
{
    return id % kSessions;
}

/**
 * Each session's op stream. Keys come from one distribution for all
 * sessions; an update redraws until it lands on a row the session
 * owns, so only the owner ever writes a row.
 */
Plans
planSessions(std::uint64_t rows, const Mix &mix, double seconds,
             std::uint64_t seed)
{
    const auto opsPerSession =
        static_cast<std::uint64_t>(kMaxOpsPerSec * seconds / kSessions)
        + kOpsPerBatch * kMaxInFlight;
    const ZipfSampler zipf(rows, 0.99);
    const workload::RankScatterer scatter(rows);
    Plans plans(kSessions);
    for (std::uint64_t s = 0; s < kSessions; ++s) {
        Rng rng(seed * 1000003 + s);
        auto draw = [&] {
            return mix.zipf ? scatter(zipf(rng)) : rng.nextBounded(rows);
        };
        std::uint64_t version = 0;
        plans[s].reserve(opsPerSession);
        for (std::uint64_t i = 0; i < opsPerSession; ++i) {
            PlannedOp op;
            if (rng.nextBool(mix.updateFrac)) {
                do {
                    op.id = draw();
                } while (ownerOf(op.id) != s);
                op.version = ++version;
            } else {
                op.id = draw();
            }
            plans[s].push_back(op);
        }
    }
    return plans;
}

std::vector<std::uint8_t>
rowPayload(BlockId id, std::uint64_t version)
{
    std::vector<std::uint8_t> p(kPayloadBytes, 0);
    const std::uint64_t inv = ~id;
    std::memcpy(p.data(), &id, 8);
    std::memcpy(p.data() + 8, &version, 8);
    std::memcpy(p.data() + 16, &inv, 8);
    return p;
}

core::ShardedLaoramConfig
shardedConfig(const Table &table, std::uint64_t seed,
              const std::vector<std::string> &endpoints)
{
    core::ShardedLaoramConfig cfg;
    cfg.engine.base.numBlocks = table.rows;
    cfg.engine.base.blockBytes = kBlockBytes;
    cfg.engine.base.payloadBytes = kPayloadBytes;
    cfg.engine.base.encrypt = true;
    cfg.engine.base.profile = oram::BucketProfile::fat(4);
    cfg.engine.base.seed = seed;
    cfg.engine.superblockSize = 4;
    cfg.engine.cache.capacityBytes =
        table.cacheRowsPerShard * kPayloadBytes;
    cfg.numShards = kShards;
    cfg.shardEndpoints = endpoints;
    cfg.pipeline.windowAccesses = kWindow;
    cfg.pipeline.mode = core::PipelineMode::Concurrent;
    cfg.pipeline.prepThreads = 1;
    return cfg;
}

/**
 * Build the engine (its shards dial @p endpoints when given) and
 * preload every row as (id, 0, ~id).
 */
std::unique_ptr<core::ShardedLaoram>
deploy(const Table &table, std::uint64_t seed,
       const std::vector<std::string> &endpoints = {})
{
    auto engine = std::make_unique<core::ShardedLaoram>(
        shardedConfig(table, seed, endpoints));
    std::vector<BlockId> all(table.rows);
    for (BlockId id = 0; id < table.rows; ++id)
        all[id] = id;
    engine->setTouchCallback(
        [](BlockId id, std::vector<std::uint8_t> &payload) {
            payload = rowPayload(id, 0);
        });
    engine->runTrace(all);
    engine->setTouchCallback(nullptr);
    return engine;
}

/**
 * One in-process storage node per shard on loopback TCP, each holding
 * exactly the tree its shard of @p local's configuration stores.
 */
struct LoopbackNodes
{
    std::vector<std::unique_ptr<storage::RemoteKvServer>> servers;
    std::vector<std::unique_ptr<net::NodeListener>> listeners;
    std::vector<std::string> endpoints;

    explicit LoopbackNodes(const core::ShardedLaoram &local)
    {
        for (std::uint32_t s = 0; s < local.numShards(); ++s) {
            const core::LaoramConfig sc = local.shardEngineConfigFor(s);
            const oram::TreeGeometry geom(
                sc.base.numBlocks, sc.base.blockBytes, sc.base.profile);
            const std::uint64_t recordBytes = 16 + sc.base.payloadBytes;
            const std::uint64_t metaBytes =
                geom.totalSlots() * sizeof(std::uint32_t)
                + crypto::kKeyCheckBytes;
            servers.push_back(std::make_unique<storage::RemoteKvServer>(
                storage::makeBackend(storage::StorageConfig{},
                                     geom.totalSlots(), recordBytes,
                                     metaBytes),
                storage::RemoteKvConfig{}));
            net::Endpoint ep;
            std::string error;
            if (!net::parseEndpoint("127.0.0.1:0", &ep, &error))
                throw std::runtime_error(error);
            listeners.push_back(
                std::make_unique<net::NodeListener>(*servers.back(), ep));
            endpoints.push_back(listeners.back()->endpoint().str());
        }
    }
};

/** A submitted batch the client is waiting on. */
struct InFlight
{
    std::future<serve::BatchResult> result;
    std::int64_t submitNs = 0;
    std::uint64_t session = 0;
    std::uint64_t batchId = 0;
    std::size_t firstOp = 0; ///< index into the session plan
    std::vector<std::uint64_t> required; ///< per op: min lookup version
};

/** What one closed-loop run measured. */
struct LoopResult
{
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::uint64_t ops = 0;
    std::uint64_t updates = 0;
    std::uint64_t failed = 0;
    std::uint64_t spans = 0;
    bool exhausted = false; ///< a plan ran out before the deadline
    std::vector<double> latencyUs; ///< in completion order
    std::vector<double> submitUs;
    std::vector<std::int64_t> doneNs;
    std::vector<std::uint64_t> doneOps;
    core::ShardedPipelineReport report;
};

/** Per-row newest submitted and newest acknowledged update version. */
struct VersionLedger
{
    explicit VersionLedger(std::uint64_t rows)
        : submitted(rows), acked(rows)
    {
    }
    std::vector<std::uint64_t> submitted;
    std::vector<std::uint64_t> acked;
};

/**
 * Drive the frontend for @p seconds from @p plans, continuing each
 * session at @p cursor (advanced in place).
 */
LoopResult
closedLoop(core::ShardedLaoram &engine, const Plans &plans,
           std::vector<std::size_t> &cursor, VersionLedger &ledger,
           double seconds, const std::int64_t *traceOffset,
           bool injectFault)
{
    serve::ServeFrontend frontend(engine);
    std::vector<serve::Session> sessions;
    for (std::uint64_t s = 0; s < kSessions; ++s)
        sessions.push_back(frontend.session());
    frontend.start();

    LoopResult out;
    out.startNs = nowNs();
    const std::int64_t deadline =
        out.startNs + static_cast<std::int64_t>(seconds * 1e9);

    std::atomic<bool> running{true};
    std::thread flusher([&] {
        while (running.load(std::memory_order_relaxed)) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(kFlushEveryUs));
            frontend.flush();
        }
    });

    bool injected = !injectFault;
    std::deque<InFlight> inflight; // submission order
    std::vector<std::uint64_t> sessionInFlight(kSessions, 0);

    auto submitOne = [&](std::uint64_t s) {
        const std::vector<PlannedOp> &plan = plans[s];
        InFlight f;
        f.session = s;
        f.firstOp = cursor[s];
        f.batchId = s << 40 | cursor[s] / kOpsPerBatch;
        serve::Batch batch;
        for (std::uint64_t i = 0; i < kOpsPerBatch; ++i) {
            const PlannedOp &op = plan[cursor[s] + i];
            if (op.version != 0) {
                ledger.submitted[op.id] = op.version;
                batch.ops.push_back(serve::Op::update(
                    op.id, rowPayload(op.id, op.version)));
                f.required.push_back(0);
            } else {
                // Own rows: every earlier update by the submitter;
                // other rows: the last acknowledged update.
                f.required.push_back(ownerOf(op.id) == s
                                         ? ledger.submitted[op.id]
                                         : ledger.acked[op.id]);
                batch.ops.push_back(serve::Op::lookup(op.id));
            }
        }
        // The injected fault demands a version no update wrote.
        for (std::uint64_t i = 0; i < kOpsPerBatch && !injected; ++i)
            if (plan[cursor[s] + i].version == 0) {
                f.required[i] = ~std::uint64_t{0} >> 1;
                injected = true;
            }
        cursor[s] += kOpsPerBatch;
        f.submitNs = nowNs();
        f.result = sessions[s].submit(std::move(batch));
        const std::int64_t submitted = nowNs();
        out.submitUs.push_back(
            static_cast<double>(submitted - f.submitNs) / 1e3);
        if (traceOffset) {
            obs::traceRecord("bench.submit", f.submitNs + *traceOffset,
                             submitted - f.submitNs, f.batchId);
            ++out.spans;
        }
        ++sessionInFlight[s];
        inflight.push_back(std::move(f));
    };

    auto completeOldest = [&] {
        InFlight f = std::move(inflight.front());
        inflight.pop_front();
        --sessionInFlight[f.session];
        const std::vector<PlannedOp> &plan = plans[f.session];
        std::uint64_t bad = 0;
        try {
            const serve::BatchResult r = f.result.get();
            const std::int64_t done = nowNs();
            out.latencyUs.push_back(
                static_cast<double>(done - f.submitNs) / 1e3);
            out.doneNs.push_back(done);
            out.doneOps.push_back(kOpsPerBatch);
            if (traceOffset) {
                obs::traceRecord("bench.batch", f.submitNs + *traceOffset,
                                 done - f.submitNs, f.batchId);
                ++out.spans;
            }
            for (std::uint64_t i = 0; i < kOpsPerBatch; ++i) {
                const PlannedOp &op = plan[f.firstOp + i];
                if (op.version != 0) {
                    ++out.updates;
                    ledger.acked[op.id] =
                        std::max(ledger.acked[op.id], op.version);
                    continue;
                }
                const std::vector<std::uint8_t> &p = r.results[i].payload;
                std::uint64_t id = 0, version = 0, inv = 0;
                if (p.size() >= 24) {
                    std::memcpy(&id, p.data(), 8);
                    std::memcpy(&version, p.data() + 8, 8);
                    std::memcpy(&inv, p.data() + 16, 8);
                }
                if (p.size() != kPayloadBytes || id != op.id
                    || inv != ~op.id || version < f.required[i]
                    || version > ledger.submitted[op.id])
                    ++bad;
            }
        } catch (const std::exception &) {
            bad = kOpsPerBatch; // rejected or failed batch
        }
        out.failed += bad;
        out.ops += kOpsPerBatch;
    };

    for (;;) {
        if (nowNs() < deadline) {
            for (std::uint64_t s = 0; s < kSessions; ++s) {
                while (sessionInFlight[s] < kMaxInFlight
                       && cursor[s] + kOpsPerBatch <= plans[s].size())
                    submitOne(s);
                if (cursor[s] + kOpsPerBatch > plans[s].size())
                    out.exhausted = true;
            }
        }
        if (inflight.empty())
            break;
        completeOldest();
    }
    out.endNs = nowNs();
    running.store(false, std::memory_order_relaxed);
    flusher.join();
    out.report = frontend.stop();
    return out;
}

/** Counters summed over shards, read only between runs. */
struct ShardCounters
{
    storage::IoStats io;
    mem::TrafficCounters traffic;
    double simNs = 0.0;
    std::uint64_t linked = 0;
    std::uint64_t preprocessed = 0;
};

ShardCounters
readCounters(core::ShardedLaoram &engine)
{
    ShardCounters c;
    for (std::uint32_t s = 0; s < engine.numShards(); ++s) {
        const core::Laoram &shard = engine.shard(s);
        c.io += shard.storageForAudit().ioStats();
        c.traffic += shard.meter().counters();
        c.simNs += shard.meter().clock().nanoseconds();
        c.linked += shard.futureLinkedMembers();
        c.preprocessed += shard.accessesPreprocessed();
    }
    return c;
}

double
loopThroughput(const LoopResult &r)
{
    return sliceRate(r.doneNs, r.doneOps, r.startNs, r.endNs);
}

std::string
exhaustedNote(const char *phase)
{
    return std::string(phase)
           + ": a session's op stream ran out before the deadline;"
             " raise kMaxOpsPerSec";
}

/** The traced run's remote phase: what the net.* metrics need. */
struct RemotePhase
{
    LoopResult loop;
    storage::IoStats io;
    std::uint64_t reconnects = 0;
};

RemotePhase
runRemotePhase(const core::ShardedLaoram &local, const Table &table,
               const RunOptions &opt, double seconds)
{
    const Plans plans =
        planSessions(table.rows, kUniformMix, seconds, opt.seed + 1);
    // Nodes outlive the engine, so its shards hang up first.
    LoopbackNodes nodes(local);
    auto engine = deploy(table, opt.seed, nodes.endpoints);
    VersionLedger ledger(table.rows);
    std::vector<std::size_t> cursor(kSessions, 0);

    obs::Counter &reconnects = obs::MetricsRegistry::instance().counter(
        "node.client_reconnects");
    RemotePhase out;
    obs::setMetricsEnabled(true);
    const std::uint64_t r0 = reconnects.get();
    const ShardCounters c0 = readCounters(*engine);
    out.loop = closedLoop(*engine, plans, cursor, ledger, seconds, nullptr,
                          false);
    out.io = readCounters(*engine).io.since(c0.io);
    out.reconnects = reconnects.get() - r0;
    obs::setMetricsEnabled(false);
    return out;
}

} // namespace

Result
runServeZipfCache(const RunOptions &opt)
{
    const Table table = tableFor(opt.scale);
    Result res;

    // ---- Inputs, all built before any timing. ----
    const Plans plans =
        planSessions(table.rows, kZipfMix, opt.seconds, opt.seed);

    // ---- Set-up: engine + row preload, several times. ----
    std::vector<double> setupS;
    std::unique_ptr<core::ShardedLaoram> deployed;
    for (int i = 0; i < kSetups; ++i) {
        deployed.reset();
        const std::int64_t t0 = nowNs();
        deployed = deploy(table, opt.seed);
        setupS.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }
    core::ShardedLaoram &engine = *deployed;

    VersionLedger ledger(table.rows);
    std::vector<std::size_t> cursor(kSessions, 0);

    if (!opt.traced) {
        const ShardCounters c0 = readCounters(engine);
        const LoopResult r = closedLoop(engine, plans, cursor, ledger,
                                        opt.seconds, nullptr,
                                        opt.injectFault);
        const ShardCounters c1 = readCounters(engine);
        const mem::TrafficCounters t = c1.traffic.since(c0.traffic);
        const double acc = static_cast<double>(t.logicalAccesses);
        res.attempted = r.ops;
        res.failed = r.failed;
        auto &m = res.metrics;
        m["setup_s"] = median(setupS);
        m["throughput_ops_s"] = loopThroughput(r);
        m["latency_p50_us"] = slicedQuantile(r.latencyUs, 0.50);
        m["latency_p99_us"] = slicedQuantile(r.latencyUs, 0.99);
        m["success_rate"] = 1.0 - ratio(static_cast<double>(r.failed),
                                        static_cast<double>(r.ops));
        m["server_bytes_per_access"] =
            ratio(static_cast<double>(t.totalBytes()), acc);
        m["sim_ns_per_access"] = ratio(c1.simNs - c0.simNs, acc);
        m["server_bytes_per_row_byte"] =
            ratio(static_cast<double>(engine.serverBytes()),
                  static_cast<double>(table.rows * kBlockBytes));
        m["peak_rss_mib"] = peakRssMib();
        std::ostringstream n;
        n << "samples: " << r.latencyUs.size() << " batches, "
          << kRateSlices << " rate slices, " << setupS.size()
          << " set-ups; " << r.ops << " ops in "
          << (r.endNs - r.startNs) / 1e9 << " s, "
          << r.report.aggregate.windows << " windows";
        res.notes.push_back(n.str());
        if (r.exhausted)
            res.notes.push_back(exhaustedNote("closed loop"));
        return res;
    }

    // Traced run: the loop untraced, the loop traced, then the remote
    // phase, a third of the time each.
    const double phaseSeconds = opt.seconds / 3;
    const LoopResult a = closedLoop(engine, plans, cursor, ledger,
                                    phaseSeconds, nullptr, false);
    const ShardCounters c0 = readCounters(engine);
    const std::int64_t traceOffset = beginTracing();
    const LoopResult b = closedLoop(engine, plans, cursor, ledger,
                                    phaseSeconds, &traceOffset,
                                    opt.injectFault);
    // stop() joined every lane, so no thread records spans any more.
    std::string traceError;
    const bool traceOk = finishTracing(opt.traceOut, b.spans, &traceError);
    const ShardCounters c1 = readCounters(engine);
    const RemotePhase remote =
        runRemotePhase(engine, table, opt, phaseSeconds);

    res.attempted = a.ops + b.ops + remote.loop.ops;
    res.failed =
        a.failed + b.failed + remote.loop.failed + (traceOk ? 0 : 1);
    const storage::IoStats io = c1.io.since(c0.io);
    const mem::TrafficCounters t = c1.traffic.since(c0.traffic);
    const core::PipelineReport &rep = b.report.aggregate;
    const double acc = static_cast<double>(t.logicalAccesses);
    const double ops = static_cast<double>(b.ops);
    std::vector<double> submitUs = b.submitUs;

    auto &m = res.metrics;
    for (const MetricSpec &metric : perLayerMetrics())
        m[metric.name] = 0.0;
    m["core.preprocessor.ns_per_access"] = ratio(rep.wallPrepNs, acc);
    m["core.preprocessor.future_linked_frac"] =
        ratio(static_cast<double>(c1.linked - c0.linked),
              static_cast<double>(c1.preprocessed - c0.preprocessed));
    m["core.pipeline.serve_wait_frac"] =
        ratio(rep.wallFillNs + rep.wallStallNs, rep.wallTotalNs);
    m["core.laoram_client.serve_ns_per_access"] =
        ratio(rep.wallServeNs, acc);
    m["core.laoram_client.self_ns_per_access"] =
        ratio(rep.wallServeNs - static_cast<double>(io.totalNs()), acc);
    m["oram.path_reads_per_access"] =
        ratio(static_cast<double>(t.pathReads), acc);
    m["oram.dummy_reads_per_access"] =
        ratio(static_cast<double>(t.dummyReads), acc);
    m["oram.stash_peak_blocks"] = static_cast<double>(c1.traffic.stashPeak);
    m["oram.slots_per_path_read"] =
        ratio(static_cast<double>(t.blocksRead),
              static_cast<double>(t.pathReads + t.dummyReads));
    m["storage.read_ns_per_slot"] =
        ratio(static_cast<double>(io.readNs),
              static_cast<double>(io.slotsRead));
    m["storage.write_ns_per_slot"] =
        ratio(static_cast<double>(io.writeNs),
              static_cast<double>(io.slotsWritten));
    m["storage.busy_frac"] = ratio(static_cast<double>(io.totalNs()),
                                   rep.wallTotalNs * kShards);
    m["storage.calls_per_access"] =
        ratio(static_cast<double>(io.readOps + io.writeOps), acc);
    const cache::CacheStats &cs = rep.cache;
    m["cache.hit_rate"] = cs.hitRate();
    m["cache.admission_hit_frac"] =
        ratio(static_cast<double>(cs.admissionHits), ops);
    m["cache.writeback_coalesced_per_update"] =
        ratio(static_cast<double>(cs.writebackCoalesced),
              static_cast<double>(b.updates));
    m["cache.evictions_per_op"] =
        ratio(static_cast<double>(cs.evictions), ops);
    const cache::CacheStats &uniform = remote.loop.report.aggregate.cache;
    m["cache.evictions_per_op_uniform"] =
        ratio(static_cast<double>(uniform.evictions),
              static_cast<double>(remote.loop.ops));
    m["serve.submit_block_us_p99"] = quantile(submitUs, 0.99);
    m["serve.window_fill_frac"] =
        ratio(acc, static_cast<double>(rep.windows * kWindow));
    m["serve.stall_frac"] = ratio(rep.wallStallNs, rep.wallTotalNs);
    m["net.rpc_us"] = ratio(static_cast<double>(remote.io.readNs) / 1e3,
                            static_cast<double>(remote.io.readOps));
    m["net.reconnects"] = static_cast<double>(remote.reconnects);
    m["obs.trace_overhead_frac"] =
        ratio(loopThroughput(a), loopThroughput(b)) - 1.0;
    res.notes.push_back(traceOk ? "trace " + opt.traceOut
                                      + " passes validateChromeTrace"
                                : "trace check failed: " + traceError);
    std::ostringstream n;
    n << "remote phase: " << remote.loop.ops << " ops, "
      << remote.io.readOps << " read RPCs, "
      << ratio(static_cast<double>(remote.loop.ops) * 1e9,
               static_cast<double>(remote.loop.endNs - remote.loop.startNs))
      << " ops/s";
    res.notes.push_back(n.str());
    for (const LoopResult *r : {&a, &b, &remote.loop})
        if (r->exhausted)
            res.notes.push_back(exhaustedNote("traced run"));
    return res;
}

} // namespace perfbench
