/**
 * @file
 * The offline workload, train-kaggle: a pre-built Kaggle-like trace
 * served window by window over encrypted 128-B rows in a fat tree
 * (S=4) several times the L3 size, in training batches, with a touch
 * callback doing a read-modify-write of a per-row touch counter.
 *
 * The untraced run drives a Concurrent BatchPipeline (one prep thread)
 * through a benchmark-owned ServeSource wrapper that ends the stream
 * at the deadline and timestamps the windowServing/windowServed hooks.
 * The traced run has three phases of equal length: the same pipeline
 * untraced, the same pipeline with the hooks traced, then a serial
 * loop of Preprocessor::runWindow + Laoram::serveWindow with spans
 * around each call, which is where the per-layer self times come from.
 */

#include <algorithm>
#include <cstring>
#include <memory>
#include <sstream>

#include "bench.hh"
#include "core/pipeline.hh"
#include "obs/trace.hh"
#include "workload/kaggle_synth.hh"

using namespace laoram;

namespace perfbench {

namespace {

using core::BlockId;

/** Accesses a traced phase serves at most. */
constexpr std::uint64_t kMaxTracedAccesses = std::uint64_t{1} << 18;

/** Row payload: (row id, touch counter, zero fill). */
constexpr std::uint64_t kRowBytes = 128;
constexpr std::uint64_t kSuperblock = 4;
constexpr std::uint64_t kWindow = 2048;      ///< pipeline window, accesses
constexpr std::uint64_t kBatchAccesses = 16; ///< training batch, accesses
constexpr int kSetups = 3;                   ///< set-up repetitions

/**
 * Sizes the pre-built trace: about six times the ~6.7 k accesses/s
 * measured on a 4-vCPU Xeon VM. A phase that serves the whole trace
 * before its deadline says so in a note.
 */
constexpr double kMaxAccessesPerSec = 4e4;

/** Table rows; the only size that depends on the scale. */
std::uint64_t
tableRowsFor(Scale scale)
{
    return scale == Scale::Full ? std::uint64_t{1} << 19 : 1 << 12;
}

core::LaoramConfig
engineConfig(std::uint64_t rows, std::uint64_t seed)
{
    core::LaoramConfig cfg;
    cfg.base.numBlocks = rows;
    cfg.base.blockBytes = kRowBytes;
    cfg.base.payloadBytes = kRowBytes;
    cfg.base.encrypt = true;
    cfg.base.profile = oram::BucketProfile::fat(4);
    cfg.base.seed = seed;
    cfg.superblockSize = kSuperblock;
    cfg.lookaheadWindow = kWindow;
    cfg.batchAccesses = kBatchAccesses;
    return cfg;
}

/**
 * Reference model of bin formation, independent of the program: per
 * window, the next S distinct ids form a bin and a repeat inside the
 * open bin collapses; consecutive bins group into training batches
 * once their raw accesses reach batchAccesses. Every bin member is
 * touched once, in stream order.
 */
struct BinModel
{
    /**
     * Walk the first @p windows windows of @p trace, calling
     * onTouch(id) per member touch and onStep() before the first
     * touch of each serving step (training batch).
     */
    template <typename TouchFn, typename StepFn>
    void
    walk(const std::vector<BlockId> &trace, std::uint64_t windows,
         TouchFn onTouch, StepFn onStep) const
    {
        std::vector<BlockId> members;
        for (std::uint64_t w = 0; w < windows; ++w) {
            const std::uint64_t begin = w * kWindow;
            const std::uint64_t end =
                std::min<std::uint64_t>(begin + kWindow, trace.size());
            // A step's touches happen only after all of its bins are
            // formed, so buffer a step's members before touching.
            std::vector<BlockId> step;
            std::uint64_t stepRaw = 0;
            std::uint64_t binRaw = 0;
            members.clear();
            auto closeBin = [&] {
                step.insert(step.end(), members.begin(), members.end());
                stepRaw += binRaw;
                members.clear();
                binRaw = 0;
                if (stepRaw >= kBatchAccesses) {
                    onStep();
                    for (BlockId id : step)
                        onTouch(id);
                    step.clear();
                    stepRaw = 0;
                }
            };
            for (std::uint64_t i = begin; i < end; ++i) {
                ++binRaw;
                if (std::find(members.begin(), members.end(), trace[i])
                    == members.end())
                    members.push_back(trace[i]);
                if (members.size() >= kSuperblock)
                    closeBin();
            }
            if (!members.empty())
                closeBin();
            if (!step.empty()) {
                onStep();
                for (BlockId id : step)
                    onTouch(id);
            }
        }
    }
};

/**
 * Per-touch state of the engine's touch callback: the row
 * read-modify-write (id + touch counter) and the step timestamps.
 * Written only by the serving thread; read after the run stopped.
 */
struct TouchLog
{
    std::vector<std::uint64_t> stepStarts; ///< touch index per step
    std::vector<std::int64_t> stepNs;      ///< time of each step start
    std::uint64_t nextStep = 0;
    std::uint64_t touches = 0;
    std::uint64_t idMismatches = 0;

    void
    onTouch(BlockId id, std::vector<std::uint8_t> &payload)
    {
        if (nextStep < stepStarts.size()
            && touches == stepStarts[nextStep])
            stepNs[nextStep++] = nowNs();
        ++touches;
        if (payload.size() < 16)
            return;
        std::uint64_t rowId = 0;
        std::uint64_t count = 0;
        std::memcpy(&rowId, payload.data(), 8);
        std::memcpy(&count, payload.data() + 8, 8);
        if (count == 0 && rowId == 0)
            rowId = id;
        else if (rowId != id)
            ++idMismatches;
        ++count;
        std::memcpy(payload.data(), &rowId, 8);
        std::memcpy(payload.data() + 8, &count, 8);
    }

    /** Re-arm for a new phase over @p trace's steps. */
    void
    arm(const BinModel &model, const std::vector<BlockId> &trace)
    {
        stepStarts.clear();
        std::uint64_t index = 0;
        model.walk(
            trace, (trace.size() + kWindow - 1) / kWindow,
            [&](BlockId) { ++index; },
            [&] { stepStarts.push_back(index); });
        stepNs.assign(stepStarts.size(), 0);
        nextStep = 0;
        touches = 0;
    }

    /** Step-to-step intervals of the armed phase, microseconds. */
    void
    stepIntervalsUs(std::vector<double> &out) const
    {
        for (std::uint64_t i = 1; i < nextStep; ++i)
            out.push_back(
                static_cast<double>(stepNs[i] - stepNs[i - 1]) / 1e3);
    }
};

/**
 * Benchmark-owned ServeSource wrapper: ends the stream at a deadline
 * and times the serving thread's hooks. With tracing on it records
 * "bench.serve-window" (windowServing -> windowServed) and
 * "bench.serve-wait" (windowServed(w-1) -> windowServing(w)).
 */
class TimedSource final : public core::ServeSource
{
  public:
    TimedSource(core::ServeSource &inner, std::int64_t deadlineNs,
                std::uint64_t firstWindow, std::uint64_t traceLen,
                const std::int64_t *traceOffset)
        : inner(inner), deadlineNs(deadlineNs), firstWindow(firstWindow),
          traceLen(traceLen), traceOffset(traceOffset)
    {
    }

    bool
    nextWindow(core::SourceWindow &out) override
    {
        if (nowNs() >= deadlineNs)
            return false;
        exhausted = !inner.nextWindow(out);
        return !exhausted;
    }

    void
    windowServing(std::uint64_t w) override
    {
        servingNs = nowNs();
        if (lastServedNs >= 0) {
            waitNs += servingNs - lastServedNs;
            if (traceOffset) {
                obs::traceRecord("bench.serve-wait",
                                 lastServedNs + *traceOffset,
                                 servingNs - lastServedNs, w);
                ++spans;
            }
        }
        inner.windowServing(w);
    }

    void
    windowServed(std::uint64_t w) override
    {
        inner.windowServed(w);
        const std::int64_t t = nowNs();
        if (traceOffset) {
            obs::traceRecord("bench.serve-window", servingNs + *traceOffset,
                             t - servingNs, w);
            ++spans;
        }
        const std::uint64_t begin = (w - firstWindow) * kWindow;
        servedAt.push_back(t);
        servedAccesses.push_back(
            std::min(kWindow, traceLen - std::min(begin, traceLen)));
        lastServedNs = t;
    }

    std::vector<std::int64_t> servedAt;
    std::vector<std::uint64_t> servedAccesses;
    std::int64_t waitNs = 0;
    std::uint64_t spans = 0;
    bool exhausted = false; ///< the trace ended before the deadline

  private:
    core::ServeSource &inner;
    const std::int64_t deadlineNs;
    const std::uint64_t firstWindow;
    const std::uint64_t traceLen;
    const std::int64_t *traceOffset; ///< null = untraced
    std::int64_t servingNs = 0;
    std::int64_t lastServedNs = -1;
};

/** One timed phase over one trace segment. */
struct PhaseResult
{
    std::uint64_t windows = 0;
    std::uint64_t accesses = 0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    double throughput = 0.0; ///< sliceRate, accesses/s
    std::int64_t waitNs = 0; ///< serve-thread wait between windows
    std::uint64_t spans = 0; ///< benchmark spans recorded
    bool exhausted = false;  ///< the segment ended before the deadline

    // Serial phase only: summed span durations.
    std::int64_t prepNs = 0;
    std::int64_t serveNs = 0;
    std::int64_t storageNs = 0;
};

PhaseResult
runPipelinePhase(core::Laoram &engine, const std::vector<BlockId> &segment,
                 double seconds, const std::int64_t *traceOffset)
{
    const std::uint64_t first = engine.windowsServed();
    core::TraceSource trace(segment, kWindow, first);
    PhaseResult r;
    r.startNs = nowNs();
    TimedSource source(trace,
                       r.startNs + static_cast<std::int64_t>(seconds * 1e9),
                       first, segment.size(), traceOffset);
    core::PipelineConfig pc;
    pc.windowAccesses = kWindow;
    pc.mode = core::PipelineMode::Concurrent;
    pc.prepThreads = 1;
    // Shallow queue: windows claimed before the deadline are still
    // served, so the depth bounds how far a phase overruns it.
    pc.queueDepth = 2;
    pc.firstWindowIndex = first;
    core::BatchPipeline(engine, pc).run(source);
    r.endNs = nowNs();
    r.windows = source.servedAccesses.size();
    for (std::uint64_t n : source.servedAccesses)
        r.accesses += n;
    r.throughput = sliceRate(source.servedAt, source.servedAccesses,
                             r.startNs, r.endNs);
    r.waitNs = source.waitNs;
    r.spans = source.spans;
    r.exhausted = source.exhausted;
    return r;
}

PhaseResult
runSerialPhase(core::Laoram &engine, const std::vector<BlockId> &segment,
               double seconds, std::int64_t traceOffset)
{
    const std::uint64_t first = engine.windowsServed();
    const core::Preprocessor prep(
        core::PreprocessorConfig{kSuperblock,
                                 engine.geometry().numLeaves()},
        engine.preprocessorSeed());
    const storage::IoStats &io = engine.storageForAudit().ioStats();
    PhaseResult r;
    r.startNs = nowNs();
    const std::int64_t deadline =
        r.startNs + static_cast<std::int64_t>(seconds * 1e9);
    std::uint64_t off = 0;
    for (; off < segment.size() && nowNs() < deadline; off += kWindow) {
        const std::uint64_t w = first + r.windows;
        const std::uint64_t end =
            std::min<std::uint64_t>(off + kWindow, segment.size());
        const std::int64_t t0 = nowNs();
        const core::WindowSchedule sched = prep.runWindow(
            w, off, segment.data() + off, segment.data() + end);
        const std::int64_t t1 = nowNs();
        const std::int64_t io0 = io.totalNs();
        engine.serveWindow(sched.result);
        const std::int64_t storage = io.totalNs() - io0;
        const std::int64_t t2 = nowNs();
        // The storage child span is placed at the start of its parent:
        // IoStats gives its length, not where inside serveWindow it ran.
        obs::traceRecord("bench.prep", t0 + traceOffset, t1 - t0, w);
        obs::traceRecord("bench.serve", t1 + traceOffset, t2 - t1, w);
        obs::traceRecord("bench.storage", t1 + traceOffset, storage, w);
        r.spans += 3;
        r.prepNs += t1 - t0;
        r.serveNs += t2 - t1;
        r.storageNs += storage;
        r.accesses += end - off;
        ++r.windows;
    }
    r.endNs = nowNs();
    r.exhausted = off >= segment.size() && r.endNs < deadline;
    return r;
}

std::vector<BlockId>
buildTrace(std::uint64_t rows, std::uint64_t accesses, std::uint64_t seed)
{
    workload::KaggleParams p;
    p.numBlocks = rows;
    p.accesses = accesses;
    p.hotProbability = 0.15;
    p.hotSetSize = std::min<std::uint64_t>(2048, rows / 4);
    p.seed = seed;
    return workload::makeKaggleTrace(p).accesses;
}

std::uint64_t
absDiff(std::uint64_t a, std::uint64_t b)
{
    return a > b ? a - b : b - a;
}

/** Rows the after-run readBlock sweep checks: hot band + a sample. */
std::vector<BlockId>
sweepRows(std::uint64_t tableRows, std::uint64_t seed)
{
    std::vector<BlockId> rows;
    const std::uint64_t hot = std::min<std::uint64_t>(2048, tableRows / 4);
    for (BlockId id = 0; id < hot; ++id)
        rows.push_back(id);
    Rng rng(seed ^ 0x5EE9);
    for (std::uint64_t i = 0; i < 4096 && i < tableRows; ++i)
        rows.push_back(hot + rng.nextBounded(tableRows - hot));
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    return rows;
}

} // namespace

Result
runTrainKaggle(const RunOptions &opt)
{
    const std::uint64_t tableRows = tableRowsFor(opt.scale);
    Result res;

    // ---- Inputs, all built before any timing. ----
    const int phases = opt.traced ? 3 : 1;
    const double phaseSeconds = opt.seconds / phases;
    const auto perPhase = static_cast<std::uint64_t>(
        kMaxAccessesPerSec * phaseSeconds) + kWindow;
    std::vector<std::vector<BlockId>> segments;
    {
        const std::vector<BlockId> trace =
            buildTrace(tableRows, perPhase * phases, opt.seed);
        for (int p = 0; p < phases; ++p) {
            // Traced phases also end after kMaxTracedAccesses, which
            // keeps the program's own spans within the trace rings.
            const std::uint64_t len =
                p == 0 ? perPhase
                       : std::min<std::uint64_t>(perPhase,
                                                 kMaxTracedAccesses);
            segments.emplace_back(trace.begin() + p * perPhase,
                                  trace.begin() + p * perPhase + len);
        }
    }
    const BinModel model;

    // ---- Set-up: build the engine (tree init) several times. ----
    std::vector<double> setupS;
    std::unique_ptr<core::Laoram> engine;
    for (int i = 0; i < kSetups; ++i) {
        engine.reset();
        const std::int64_t t0 = nowNs();
        engine = std::make_unique<core::Laoram>(
            engineConfig(tableRows, opt.seed));
        setupS.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }
    TouchLog log;
    engine->setTouchCallback(
        [&log](BlockId id, std::vector<std::uint8_t> &payload) {
            log.onTouch(id, payload);
        });

    // ---- Timed phases. ----
    const mem::TrafficCounters c0 = engine->meter().counters();
    const double sim0 = engine->meter().clock().nanoseconds();
    std::vector<PhaseResult> ran;
    std::vector<double> latencyUs;
    std::uint64_t expectedTouches = 0;
    std::uint64_t touches = 0;
    std::vector<std::uint32_t> expectedCount(tableRows, 0);
    // Serial-phase deltas: every oram.*, storage.* and core.* layer
    // metric covers exactly the serial phase's work.
    storage::IoStats ioSerial;
    mem::TrafficCounters trafficSerial;
    std::uint64_t linkedSerial = 0;
    std::uint64_t preprocessedSerial = 0;
    std::int64_t traceOffset = 0;
    std::string traceError;
    bool traceOk = true;

    for (int p = 0; p < phases; ++p) {
        log.arm(model, segments[p]);
        PhaseResult r;
        if (p == 0) {
            r = runPipelinePhase(*engine, segments[p], phaseSeconds,
                                 nullptr);
        } else if (p == 1) {
            traceOffset = beginTracing();
            r = runPipelinePhase(*engine, segments[p], phaseSeconds,
                                 &traceOffset);
        } else {
            ioSerial = engine->storageForAudit().ioStats();
            trafficSerial = engine->meter().counters();
            linkedSerial = engine->futureLinkedMembers();
            preprocessedSerial = engine->accessesPreprocessed();
            r = runSerialPhase(*engine, segments[p], phaseSeconds,
                               traceOffset);
            ioSerial = engine->storageForAudit().ioStats().since(ioSerial);
            trafficSerial = engine->meter().counters().since(trafficSerial);
            linkedSerial = engine->futureLinkedMembers() - linkedSerial;
            preprocessedSerial =
                engine->accessesPreprocessed() - preprocessedSerial;
            traceOk = finishTracing(opt.traceOut, ran[1].spans + r.spans,
                                    &traceError);
        }
        log.stepIntervalsUs(latencyUs);
        touches += log.touches;
        model.walk(
            segments[p], r.windows,
            [&](BlockId id) {
                ++expectedCount[id];
                ++expectedTouches;
            },
            [] {});
        ran.push_back(r);
    }

    // ---- Output checks (after the run stopped). ----
    const mem::TrafficCounters traffic =
        engine->meter().counters().since(c0);
    const double simNs = engine->meter().clock().nanoseconds() - sim0;
    std::uint64_t served = 0;
    for (const PhaseResult &r : ran)
        served += r.accesses;
    res.attempted = served;
    // Every bin member is touched exactly once; an injected fault
    // expects one touch too many.
    const std::uint64_t wantTouches =
        expectedTouches + (opt.injectFault ? 1 : 0);
    std::uint64_t failed =
        log.idMismatches + absDiff(touches, wantTouches);
    const std::vector<BlockId> rows = sweepRows(tableRows, opt.seed);
    if (opt.injectFault)
        ++expectedCount[rows.front()];
    std::vector<std::uint8_t> row;
    for (BlockId id : rows) {
        engine->readBlock(id, row);
        std::uint64_t rowId = 0;
        std::uint64_t count = 0;
        std::memcpy(&rowId, row.data(), 8);
        std::memcpy(&count, row.data() + 8, 8);
        if (count != 0 && rowId != id)
            failed += count;
        failed += absDiff(count, expectedCount[id]);
    }
    res.notes.push_back("checked touch counters of "
                        + std::to_string(rows.size())
                        + " rows by readBlock");
    failed += absDiff(traffic.logicalAccesses, served);
    res.failed = std::min(failed, served);
    for (std::size_t p = 0; p < ran.size(); ++p)
        if (ran[p].exhausted)
            res.notes.push_back("phase " + std::to_string(p)
                                + " served its whole trace segment"
                                  " before the deadline; raise"
                                  " kMaxAccessesPerSec");

    // ---- Metrics. ----
    const double accesses = static_cast<double>(traffic.logicalAccesses);
    if (!opt.traced) {
        const PhaseResult &r = ran[0];
        res.metrics["setup_s"] = median(setupS);
        res.metrics["throughput_ops_s"] = r.throughput;
        res.metrics["latency_p50_us"] = slicedQuantile(latencyUs, 0.50);
        res.metrics["latency_p99_us"] = slicedQuantile(latencyUs, 0.99);
        res.metrics["success_rate"] =
            1.0 - ratio(static_cast<double>(res.failed),
                        static_cast<double>(res.attempted));
        res.metrics["server_bytes_per_access"] =
            ratio(static_cast<double>(traffic.totalBytes()), accesses);
        res.metrics["sim_ns_per_access"] = ratio(simNs, accesses);
        res.metrics["server_bytes_per_row_byte"] = ratio(
            static_cast<double>(engine->geometry().serverBytes()),
            static_cast<double>(tableRows * kRowBytes));
        res.metrics["peak_rss_mib"] = peakRssMib();
        std::ostringstream n;
        n << "samples: " << latencyUs.size() << " serving steps, "
          << r.windows << " windows, " << setupS.size() << " set-ups; "
          << r.accesses << " accesses in "
          << (r.endNs - r.startNs) / 1e9 << " s";
        res.notes.push_back(n.str());
        return res;
    }

    const PhaseResult &a = ran[0];
    const PhaseResult &b = ran[1];
    const PhaseResult &c = ran[2];
    const double cAcc = static_cast<double>(c.accesses);
    const storage::IoStats &io = ioSerial;
    const mem::TrafficCounters &t = trafficSerial;
    const double cWall = static_cast<double>(c.endNs - c.startNs);
    auto &m = res.metrics;
    for (const MetricSpec &metric : perLayerMetrics())
        m[metric.name] = 0.0;
    m["core.preprocessor.ns_per_access"] =
        ratio(static_cast<double>(c.prepNs), cAcc);
    m["core.preprocessor.future_linked_frac"] =
        ratio(static_cast<double>(linkedSerial),
              static_cast<double>(preprocessedSerial));
    m["core.pipeline.serve_wait_frac"] =
        ratio(static_cast<double>(b.waitNs),
              static_cast<double>(b.endNs - b.startNs));
    m["core.laoram_client.serve_ns_per_access"] =
        ratio(static_cast<double>(c.serveNs), cAcc);
    m["core.laoram_client.self_ns_per_access"] =
        ratio(static_cast<double>(c.serveNs - c.storageNs), cAcc);
    m["oram.path_reads_per_access"] =
        ratio(static_cast<double>(t.pathReads),
              static_cast<double>(t.logicalAccesses));
    m["oram.dummy_reads_per_access"] =
        ratio(static_cast<double>(t.dummyReads),
              static_cast<double>(t.logicalAccesses));
    // A high-water mark has no interval delta: the engine's lifetime
    // peak, which the serial phase's since() carries over.
    m["oram.stash_peak_blocks"] = static_cast<double>(t.stashPeak);
    m["oram.slots_per_path_read"] =
        ratio(static_cast<double>(t.blocksRead),
              static_cast<double>(t.pathReads + t.dummyReads));
    m["storage.read_ns_per_slot"] =
        ratio(static_cast<double>(io.readNs),
              static_cast<double>(io.slotsRead));
    m["storage.write_ns_per_slot"] =
        ratio(static_cast<double>(io.writeNs),
              static_cast<double>(io.slotsWritten));
    m["storage.busy_frac"] =
        ratio(static_cast<double>(io.totalNs()), cWall);
    m["storage.calls_per_access"] =
        ratio(static_cast<double>(io.readOps + io.writeOps), cAcc);
    m["obs.trace_overhead_frac"] = ratio(a.throughput, b.throughput) - 1.0;
    m["obs.trace_gap_frac"] =
        ratio(cWall - static_cast<double>(c.prepNs + c.serveNs), cWall);
    if (!traceOk) {
        res.failed = std::max<std::uint64_t>(res.failed, 1);
        res.notes.push_back("trace check failed: " + traceError);
    } else {
        res.notes.push_back("trace " + opt.traceOut
                            + " passes validateChromeTrace");
    }
    std::ostringstream n;
    n << "serial self time: prep " << c.prepNs / 1e6 << " ms + client "
      << (c.serveNs - c.storageNs) / 1e6 << " ms + storage "
      << c.storageNs / 1e6 << " ms + gap "
      << (cWall - static_cast<double>(c.prepNs + c.serveNs)) / 1e6
      << " ms = wall " << cWall / 1e6 << " ms";
    res.notes.push_back(n.str());
    return res;
}

} // namespace perfbench
