#include "core/pipeline.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "core/reorder_window.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/logging.hh"
#include "util/walltime.hh"

namespace laoram::core {

namespace {

/** What travels over the reorder window: a schedule + its prep cost. */
struct PreparedWindow
{
    WindowSchedule sched;
    std::int64_t prepWallNs = 0;
};

/** Per-prep-thread accounting, written only by its owner thread. */
struct PrepThreadLedger
{
    std::int64_t busyNs = 0;     ///< time inside runWindow
    std::int64_t lifetimeNs = 0; ///< thread start to exit
    std::uint64_t windows = 0;   ///< windows preprocessed
};

/**
 * One run's serving-stage counters, written only by the serving
 * thread. run() attaches them to the "pipeline." LedgerSet for the
 * run, so they are the live pipeline.* series, and fills the report's
 * windows / wallFillNs / wallStallNs from them.
 */
struct PipelineCounters
{
    using Count = obs::Relaxed<std::uint64_t>;

    Count windowsServed = 0; ///< windows drained through serving
    Count fillNs = 0;        ///< wait for the run's first window
    Count stallNs = 0;       ///< waits after the pipeline fill
};

/** Every running pipeline's counters, pulled as pipeline.*. */
obs::LedgerSet<PipelineCounters> &
livePipeline()
{
    using C = PipelineCounters;
    static obs::LedgerSet<C> &set =
        obs::MetricsRegistry::instance().ledgers<C>(
            "pipeline.",
            {
                {"windows_served",
                 "windows drained through the serving stage",
                 &C::windowsServed},
                {"fill_ns",
                 "serve-thread wait for each run's first window",
                 &C::fillNs},
                {"stall_ns",
                 "serve-thread waits after the pipeline fill",
                 &C::stallNs},
            });
    return set;
}

/** One run's counters, attached to the pipeline.* series for scope. */
struct LiveRun
{
    PipelineCounters c;

    LiveRun() { livePipeline().attach(&c); }
    ~LiveRun() { livePipeline().detach(&c); }

    LiveRun(const LiveRun &) = delete;
    LiveRun &operator=(const LiveRun &) = delete;
};

} // namespace

void
PipelineConfig::validate() const
{
    // User-facing config errors (LAORAM_FATAL, exit 1) — not library
    // invariants, so no LAORAM_ASSERT/abort here.
    if (windowAccesses < 1)
        LAORAM_FATAL("pipeline windowAccesses must be >= 1");
    if (queueDepth < 1)
        LAORAM_FATAL("pipeline queueDepth must be >= 1");
    if (prepThreads < 1)
        LAORAM_FATAL("pipeline prepThreads must be >= 1 (one thread "
                     "IS the minimal stage-1 pool)");
    if (prepLoadNsPerAccess < 0.0)
        LAORAM_FATAL("prepLoadNsPerAccess must be >= 0, got ",
                     prepLoadNsPerAccess);
    if (mode == PipelineMode::Simulated && prepThreads > 1) {
        LAORAM_FATAL("PipelineMode::Simulated runs both stages on the "
                     "calling thread; prepThreads=", prepThreads,
                     " would be silently ignored — use Concurrent "
                     "mode for a preprocessor pool");
    }
    if (mode == PipelineMode::Simulated && prepLoadNsPerAccess > 0.0) {
        LAORAM_FATAL("prepLoadNsPerAccess emulates wall-clock stage-1 "
                     "load on real preprocessor threads; Simulated "
                     "mode spawns none and runs stage 1 inline on "
                     "the serving thread");
    }
}

BatchPipeline::BatchPipeline(Laoram &engine, const PipelineConfig &cfg)
    : engine(engine), cfg(cfg),
      prep(PreprocessorConfig{engine.laoramConfig().superblockSize,
                              engine.geometry().numLeaves()},
           engine.preprocessorSeed())
{
    cfg.validate();
}

PipelineReport
BatchPipeline::run(const std::vector<BlockId> &trace)
{
    if (trace.empty())
        return PipelineReport{};
    TraceSource source(trace, cfg.windowAccesses,
                       cfg.firstWindowIndex);
    return run(source);
}

PipelineReport
BatchPipeline::run(ServeSource &source)
{
    PipelineReport rep;
    cache::CacheStats cacheStart;
    if (const cache::HotEmbeddingCache *c = engine.hotCache())
        cacheStart = c->stats();
    LiveRun live;

    // Concurrent mode runs stage 1 on a pool; Simulated mode runs it
    // inline on the serving thread and spawns nothing.
    const std::size_t poolSize =
        cfg.mode == PipelineMode::Concurrent ? cfg.prepThreads : 0;

    ReorderWindow<PreparedWindow> reorder(cfg.queueDepth,
                                          cfg.firstWindowIndex);
    std::mutex errorMu;
    std::exception_ptr prepError;

    const storage::IoStats ioBefore =
        engine.storageForAudit().ioStats();

    const WallClock::time_point runStart = WallClock::now();

    // Cross-window links, built once by whichever stage-1 call first
    // sees the source's stream; every other call waits for them inside
    // call_once, so the pass is part of the pipeline fill.
    const std::uint64_t horizon = engine.laoramConfig().lookaheadHorizon;
    std::once_flag linksBuilt;
    LookaheadLinks links;
    std::int64_t linkPassNs = 0;

    // Stage 1 for one window, on a pool thread or inline: build the
    // schedule with the window-derived path stream (order-independent
    // by construction), link it past the window, and time it.
    auto prepareWindow = [&](const SourceWindow &sw) {
        // A one-window stream has no later window to link to.
        const bool linked = sw.stream != nullptr && horizon != 0
                            && sw.stream->numWindows() > 1;
        if (linked) {
            std::call_once(linksBuilt, [&] {
                const WallClock::time_point t0 = WallClock::now();
                links = LookaheadLinks::build(
                    prep, *sw.stream, horizon,
                    engine.laoramConfig().base.numBlocks);
                linkPassNs = elapsedNs(t0, WallClock::now());
                obs::traceRecordEndingNow("link-pass", linkPassNs,
                                          sw.windowIndex);
            });
        }
        PreparedWindow item;
        const WallClock::time_point t0 = WallClock::now();
        item.sched = prep.runWindow(
            sw.windowIndex, sw.traceOffset, sw.accesses.data(),
            sw.accesses.data() + sw.accesses.size());
        if (linked)
            links.apply(sw.windowIndex, item.sched.result);
        if (cfg.prepLoadNsPerAccess > 0.0) {
            // Emulated sample-decrypt/parse cost (see
            // PipelineConfig::prepLoadNsPerAccess): spin the window's
            // share of stage-1 wall time without touching any served
            // byte.
            const std::int64_t target = static_cast<std::int64_t>(
                cfg.prepLoadNsPerAccess
                * static_cast<double>(sw.accesses.size()));
            while (elapsedNs(t0, WallClock::now()) < target) {
            }
        }
        item.prepWallNs = elapsedNs(t0, WallClock::now());
        obs::traceRecordEndingNow("prep-window", item.prepWallNs,
                                  sw.windowIndex);
        return item;
    };

    // The pool: each worker claims the next window from the source
    // (an atomic ticket for trace replay, a blocking pull from the
    // session coalescer online), prepares it, and pushes the schedule
    // into the reorder window under its window index. push() blocks
    // once the window is queueDepth ahead of serving — the
    // backpressure that stops preprocessing from running arbitrarily
    // far ahead of training. Deadlock freedom holds because the
    // source hands out contiguous indices only *with* their data:
    // every claimed sequence number is pushed (or the window is
    // closed on error/shutdown).
    std::atomic<std::size_t> liveProducers{poolSize};
    std::vector<PrepThreadLedger> ledgers(poolSize);

    auto prepWorker = [&](std::size_t tid) {
        const WallClock::time_point threadStart = WallClock::now();
        obs::traceSetThreadName("prep-" + std::to_string(tid));
        PrepThreadLedger &ledger = ledgers[tid];
        try {
            SourceWindow sw;
            while (source.nextWindow(sw)) {
                PreparedWindow item = prepareWindow(sw);
                ledger.busyNs += item.prepWallNs;
                ++ledger.windows;

                if (!reorder.push(sw.windowIndex, std::move(item)))
                    break; // serving side shut the pipeline down
            }
        } catch (...) {
            {
                std::lock_guard<std::mutex> lock(errorMu);
                if (!prepError)
                    prepError = std::current_exception();
            }
            // This worker's claimed window will never arrive; the
            // consumer must not wait on the gap.
            reorder.close();
        }
        ledger.lifetimeNs = elapsedNs(threadStart, WallClock::now());
        // Last producer out ends the stream.
        if (liveProducers.fetch_sub(1, std::memory_order_acq_rel) == 1)
            reorder.close();
    };

    std::vector<std::thread> pool;
    pool.reserve(poolSize);
    for (std::size_t t = 0; t < poolSize; ++t)
        pool.emplace_back(prepWorker, t);
    auto joinPool = [&] {
        for (std::thread &t : pool)
            t.join();
    };

    // The next window in stream order: popped from the reorder window,
    // or pulled and prepared right here when there is no pool.
    SourceWindow inlineWindow;
    auto nextPrepared =
        [&](PreparedWindow &item,
            ReorderWindow<PreparedWindow>::ReleaseToken &slot) {
            if (poolSize > 0)
                return reorder.popDeferred(item, slot);
            if (!source.nextWindow(inlineWindow))
                return false;
            item = prepareWindow(inlineWindow);
            return true;
        };

    // Stage 2 on the calling thread: serve prepared windows through
    // the engine strictly in window order. Touch callbacks therefore
    // run on the caller's thread in every mode.
    std::vector<std::int64_t> prepWall;
    const double simStart = engine.meter().clock().nanoseconds();
    obs::traceSetThreadName("serve");
    try {
        PreparedWindow item;
        while (true) {
            ReorderWindow<PreparedWindow>::ReleaseToken slot;
            const WallClock::time_point waitStart = WallClock::now();
            if (!nextPrepared(item, slot))
                break;
            const std::int64_t waited =
                elapsedNs(waitStart, WallClock::now());
            if (poolSize > 0)
                obs::traceRecordEndingNow("reorder-wait", waited,
                                          item.sched.windowIndex);
            // The first window's wait is the pipeline fill, not a
            // stall.
            (prepWall.empty() ? live.c.fillNs : live.c.stallNs) +=
                static_cast<std::uint64_t>(waited);
            // Hand the freed slot back only now: stage 1's next burst
            // lands inside the serve interval, not inside the wait we
            // just measured. If serveWindow throws, the token's
            // destructor still wakes the pool on unwind.
            slot.release();

            prepWall.push_back(item.prepWallNs);

            source.windowServing(item.sched.windowIndex);
            const WallClock::time_point serveStart = WallClock::now();
            engine.serveWindow(item.sched.result);
            const std::int64_t servedNs =
                elapsedNs(serveStart, WallClock::now());
            obs::traceRecordEndingNow("serve-window", servedNs,
                                      item.sched.windowIndex);
            ++live.c.windowsServed;
            rep.wallServeNs += static_cast<double>(servedNs);
            source.windowServed(item.sched.windowIndex);
            // Window boundary: the serving thread owns all engine
            // state here (stage 1 only builds schedules), so the
            // quiesce hook may checkpoint() safely.
            if (cfg.windowBoundaryHook)
                cfg.windowBoundaryHook(item.sched.windowIndex);
        }
    } catch (...) {
        reorder.close(); // unblock the pool, then re-raise
        joinPool();
        throw;
    }
    joinPool();
    if (prepError)
        std::rethrow_exception(prepError);

    rep.windows = live.c.windowsServed;
    rep.simNs = engine.meter().clock().nanoseconds() - simStart;
    rep.wallFillNs = static_cast<double>(live.c.fillNs);
    rep.wallStallNs = static_cast<double>(live.c.stallNs);
    rep.wallLinkPassNs = static_cast<double>(linkPassNs);
    rep.wallReorderStallNs =
        static_cast<double>(reorder.stats().headOfLineWaitNs);

    rep.prepThreads = static_cast<std::uint32_t>(poolSize);
    rep.prepThreadBusyNs.reserve(poolSize);
    rep.prepThreadUtilization.reserve(poolSize);
    rep.prepThreadWindows.reserve(poolSize);
    for (const PrepThreadLedger &ledger : ledgers) {
        rep.prepThreadBusyNs.push_back(
            static_cast<double>(ledger.busyNs));
        rep.prepThreadUtilization.push_back(
            ledger.lifetimeNs > 0
                ? std::clamp(static_cast<double>(ledger.busyNs)
                                 / static_cast<double>(
                                     ledger.lifetimeNs),
                             0.0, 1.0)
                : 0.0);
        rep.prepThreadWindows.push_back(ledger.windows);
    }
    // Measured backend I/O during the serve stage: the serving thread
    // is the only storage client, so the delta over this run is its
    // genuine I/O component.
    rep.wallIoNs = static_cast<double>(engine.storageForAudit()
                                           .ioStats()
                                           .since(ioBefore)
                                           .totalNs());
    if (rep.wallServeNs > 0.0) {
        rep.ioServeFraction =
            std::clamp(rep.wallIoNs / rep.wallServeNs, 0.0, 1.0);
    }
    rep.wallTotalNs =
        static_cast<double>(elapsedNs(runStart, WallClock::now()));
    std::int64_t prepTotalNs = 0;
    for (std::int64_t ns : prepWall)
        prepTotalNs += ns;
    rep.wallPrepNs = static_cast<double>(prepTotalNs);

    // Measured overlap: of the preprocessing wall time that could hide
    // behind serving (everything after the first window's fill), the
    // share that never stalled the serving thread. Inline stage 1
    // stalls the serving thread for all of it, so this is 0 there.
    const std::int64_t hideableWall =
        prepWall.empty() ? 0 : prepTotalNs - prepWall.front();
    if (hideableWall > 0) {
        const auto stallNs = static_cast<std::int64_t>(live.c.stallNs);
        rep.measuredPrepHiddenFraction = std::clamp(
            static_cast<double>(hideableWall - stallNs)
                / static_cast<double>(hideableWall),
            0.0, 1.0);
    }

    if (StreamingHistogram *hist = source.latencyHistogram())
        rep.latency = hist->report();
    if (const cache::HotEmbeddingCache *c = engine.hotCache())
        rep.cache = c->stats().deltaFrom(cacheStart);
    return rep;
}

} // namespace laoram::core
