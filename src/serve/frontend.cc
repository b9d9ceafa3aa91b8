#include "serve/frontend.hh"

#include <algorithm>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "cache/hot_cache.hh"
#include "obs/metrics.hh"
#include "util/bounded_queue.hh"
#include "util/logging.hh"
#include "util/walltime.hh"

namespace laoram::serve {

namespace {

/** Live frontend metrics (process-wide; lanes share the handles). */
struct FrontendMetrics
{
    obs::Counter &sessions;
    obs::Gauge &admissionDepth;
    obs::Counter &rejects;
    obs::Histogram &batchOps;
    obs::Histogram &windowOps;
};

FrontendMetrics &
frontendMetrics()
{
    auto &reg = obs::MetricsRegistry::instance();
    static FrontendMetrics m{
        reg.counter("serve.sessions", "client sessions opened"),
        reg.gauge("serve.admission_depth",
                  "operations admitted but not yet coalesced"),
        reg.counter("serve.rejects",
                    "operations refused at admission (submitted "
                    "after stop)"),
        reg.histogram("serve.batch_ops",
                      "operations per submitted batch"),
        reg.histogram("serve.window_ops",
                      "operations per coalesced window"),
    };
    return m;
}

/**
 * One batch's shared completion state. Result slots are pre-sized at
 * submit time, every operation writes only its own slot, and the last
 * completer (tracked by `remaining`, a release-sequence chain) fulfils
 * the promise — so serving threads of different shards complete
 * operations of one batch without any lock.
 */
struct BatchState
{
    std::promise<BatchResult> promise;
    BatchResult result;
    std::atomic<std::uint32_t> remaining{0};

    /**
     * Set (before the matching `remaining` decrement) when admission
     * rejected part of the batch; the last completer then fails the
     * promise instead of fulfilling it.
     */
    std::atomic<bool> rejected{false};

    /** Retire @p count operations; fulfil/fail on the last one. */
    void
    complete(std::uint32_t count)
    {
        if (remaining.fetch_sub(count, std::memory_order_acq_rel)
            == count) {
            if (rejected.load(std::memory_order_acquire)) {
                promise.set_exception(
                    std::make_exception_ptr(RejectedError{}));
            } else {
                promise.set_value(std::move(result));
            }
        }
    }
};

/** One admitted operation, queued shard-locally until coalesced. */
struct PendingOp
{
    OpType type = OpType::Lookup;
    BlockId localId = 0;
    std::vector<std::uint8_t> payload; ///< update bytes
    std::shared_ptr<BatchState> batch;
    std::uint32_t slot = 0; ///< index into batch->result.results
    WallClock::time_point submitted{};
    bool flushMarker = false; ///< flush() sentinel, not an operation
};

} // namespace

/**
 * One shard's ingress lane: the admission queue, the coalescer that
 * assembles full windows from it, and the serving-side hooks that
 * apply payloads and complete futures. Implements ServeSource, so a
 * stock BatchPipeline drives it like any trace.
 */
class ServeFrontend::ShardLane final : public core::ServeSource
{
  public:
    ShardLane(std::uint64_t windowAccesses, cache::HotEmbeddingCache *cache)
        : windowAccesses(windowAccesses), queue(kAdmissionOps), cache(cache)
    {
    }

    /**
     * Coalesce the next window: pop admitted operations (blocking
     * while the queue is open but empty) until the window is full, a
     * flush sentinel cuts it short, or the stream ends. Full windows
     * are the determinism anchor — window contents depend only on the
     * lane's arrival order, never on pipeline timing — which is why
     * partial windows exist solely at explicit flush/shutdown points.
     */
    bool
    nextWindow(core::SourceWindow &out) override
    {
        // One assembler at a time: with a preprocessor pool several
        // threads claim windows concurrently, and contiguous index
        // assignment plus FIFO consumption both live under this lock.
        std::lock_guard<std::mutex> lock(assembleMu);
        out.accesses.clear();
        WindowPlan plan;
        while (out.accesses.size() < windowAccesses) {
            PendingOp op;
            if (!queue.pop(op))
                break; // closed and drained: final partial window
            if (op.flushMarker) {
                if (out.accesses.empty())
                    continue; // nothing pending at the flush point
                break;        // cut the partial window now
            }
            if (obs::metricsEnabled())
                frontendMetrics().admissionDepth.dec();
            // Hot-cache fast path: when the row is resident and no
            // earlier *planned* operation on this id is still in
            // flight (the eligibility gate that preserves per-id
            // arrival order), apply the operation to the trusted
            // cache row right here on the assembler thread and
            // complete its future at DRAM speed. The id is STILL
            // pushed into out.accesses below — the scheduled ORAM
            // access happens as a dummy and doubles as the coalesced
            // write-back for the row — so the server-visible trace is
            // byte-identical with the cache off.
            bool fast = false;
            if (cache != nullptr) {
                bool blocked;
                {
                    // Never hold pendingMu across the cache call:
                    // the serving thread locks the cache mutex first
                    // and pendingMu second (onTouch via windowServed),
                    // so the reverse nesting here would deadlock.
                    std::lock_guard<std::mutex> plk(pendingMu);
                    blocked = plannedPending.find(op.localId)
                              != plannedPending.end();
                }
                if (!blocked) {
                    if (op.type == OpType::Update) {
                        fast = cache->tryServeAtAdmission(
                            op.localId,
                            [&op](std::vector<std::uint8_t> &row) {
                                const std::size_t n = std::min(
                                    row.size(), op.payload.size());
                                std::copy_n(op.payload.begin(), n,
                                            row.begin());
                            });
                    } else {
                        fast = cache->tryServeAtAdmission(
                            op.localId,
                            [&op](std::vector<std::uint8_t> &row) {
                                op.batch->result.results[op.slot]
                                    .payload = row;
                            });
                    }
                }
            }
            out.accesses.push_back(op.localId);
            if (fast) {
                {
                    std::lock_guard<std::mutex> hlk(histMu);
                    hist.record(elapsedNs(op.submitted,
                                          WallClock::now()));
                }
                op.batch->complete(1);
                continue;
            }
            {
                std::lock_guard<std::mutex> plk(pendingMu);
                ++plannedPending[op.localId];
            }
            plan.byId[op.localId].push_back(plan.ops.size());
            plan.ops.push_back(std::move(op));
        }
        if (out.accesses.empty())
            return false;
        if (obs::metricsEnabled())
            frontendMetrics().windowOps.record(out.accesses.size());
        out.windowIndex = windowsEmitted++;
        out.traceOffset = accessesEmitted;
        accessesEmitted += out.accesses.size();
        {
            std::lock_guard<std::mutex> plock(planMu);
            plans.emplace(out.windowIndex, std::move(plan));
        }
        return true;
    }

    void
    windowServing(std::uint64_t windowIndex) override
    {
        std::lock_guard<std::mutex> plock(planMu);
        auto it = plans.find(windowIndex);
        LAORAM_ASSERT(it != plans.end(), "serving window ",
                      windowIndex, " with no coalesced plan");
        current = std::move(it->second);
        plans.erase(it);
        applied = 0;
    }

    /**
     * Engine touch hook (serving thread, mid-window): drain every
     * pending operation on this id in submission order — updates
     * overwrite the payload, lookups copy it out afterwards, so a
     * session reads its own prior writes even within one window.
     * Later touches of the same id in this window find nothing left.
     */
    void
    onTouch(BlockId localId, std::vector<std::uint8_t> &payload)
    {
        auto it = current.byId.find(localId);
        if (it == current.byId.end())
            return;
        for (const std::size_t idx : it->second) {
            PendingOp &op = current.ops[idx];
            if (op.type == OpType::Update) {
                const std::size_t n =
                    std::min(payload.size(), op.payload.size());
                std::copy_n(op.payload.begin(), n, payload.begin());
            } else {
                op.batch->result.results[op.slot].payload = payload;
            }
        }
        applied += it->second.size();
        // Remember the drain; the planned-pending gate is released
        // only in windowServed, after the engine has written the
        // touched payload back into the cache row — releasing it here
        // would let an assembler fast-apply to the row in that gap
        // and lose its update to the pending write-back.
        drainedThisWindow.emplace_back(localId, it->second.size());
        current.byId.erase(it);
    }

    /**
     * Completion point: the window's path unions are written back, so
     * results are durable — record latencies and fulfil futures.
     */
    void
    windowServed(std::uint64_t windowIndex) override
    {
        (void)windowIndex;
        LAORAM_ASSERT(applied == current.ops.size(),
                      "window served but only ", applied, " of ",
                      current.ops.size(), " operations were touched");
        const WallClock::time_point now = WallClock::now();
        {
            std::lock_guard<std::mutex> hlk(histMu);
            for (PendingOp &op : current.ops)
                hist.record(elapsedNs(op.submitted, now));
        }
        for (PendingOp &op : current.ops)
            op.batch->complete(1);
        // The window's write-backs are durable; lift the fast-path
        // gate for the ids whose planned operations just retired.
        if (!drainedThisWindow.empty()) {
            std::lock_guard<std::mutex> plk(pendingMu);
            for (const auto &[localId, count] : drainedThisWindow) {
                auto it = plannedPending.find(localId);
                LAORAM_ASSERT(it != plannedPending.end()
                                  && it->second >= count,
                              "planned-pending underflow on block ",
                              localId);
                it->second -= count;
                if (it->second == 0)
                    plannedPending.erase(it);
            }
            drainedThisWindow.clear();
        }
        current = WindowPlan{};
    }

    StreamingHistogram *latencyHistogram() override { return &hist; }

    BoundedQueue<PendingOp> &admission() { return queue; }

  private:
    /** A coalesced window's operations + per-id touch plan. */
    struct WindowPlan
    {
        std::vector<PendingOp> ops; ///< lane-arrival (submission) order
        /** localId -> indices into ops, drained at first touch. */
        std::unordered_map<BlockId, std::vector<std::size_t>> byId;
    };

    const std::uint64_t windowAccesses;
    BoundedQueue<PendingOp> queue;

    /** The shard engine's hot-row cache; nullptr when disabled. */
    cache::HotEmbeddingCache *const cache;

    std::mutex assembleMu; ///< serialises nextWindow
    std::uint64_t windowsEmitted = 0;
    std::uint64_t accessesEmitted = 0;

    std::mutex planMu; ///< assembler threads -> serving thread
    std::unordered_map<std::uint64_t, WindowPlan> plans;

    /**
     * Fast-path eligibility gate: per-id count of planned (non-fast)
     * operations coalesced but not yet retired by windowServed. While
     * non-zero, later operations on the id must also take the planned
     * path so per-id arrival order survives the coalesce-ahead race
     * (window w+1 is assembled while window w is still serving).
     */
    std::mutex pendingMu;
    std::unordered_map<BlockId, std::uint64_t> plannedPending;

    // Serving-thread-only state (one serving thread per lane).
    WindowPlan current;
    std::size_t applied = 0;
    std::vector<std::pair<BlockId, std::uint64_t>> drainedThisWindow;

    /**
     * Guarded by histMu: fast-path completions record from assembler
     * threads while windowServed records from the serving thread.
     * End-of-run reads (the pipeline's report and the sharded
     * merge, both through latencyHistogram()) happen after the
     * lane's stream drained and threads joined.
     */
    std::mutex histMu;
    StreamingHistogram hist;
};

std::future<BatchResult>
Session::submit(Batch batch)
{
    return frontend->submit(std::move(batch));
}

ServeFrontend::ServeFrontend(core::ShardedLaoram &engine)
    : engine(engine)
{
    const std::uint64_t window =
        engine.config().pipeline.windowAccesses;
    lanes.reserve(engine.numShards());
    for (std::uint32_t s = 0; s < engine.numShards(); ++s)
        lanes.push_back(std::make_unique<ShardLane>(
            window, engine.shard(s).hotCache()));
}

ServeFrontend::~ServeFrontend()
{
    if (started && !stopped) {
        try {
            stop();
        } catch (...) {
            // Destructors must not throw; stop() already joined the
            // driver, which is all teardown needs.
        }
    }
}

Session
ServeFrontend::session()
{
    if (obs::metricsEnabled())
        frontendMetrics().sessions.inc();
    return Session(*this, nextSession.fetch_add(
                              1, std::memory_order_relaxed));
}

core::ServeSource &
ServeFrontend::shardSource(std::uint32_t shard)
{
    return *lanes[shard];
}

std::future<BatchResult>
ServeFrontend::submit(Batch batch)
{
    auto state = std::make_shared<BatchState>();
    std::future<BatchResult> fut = state->promise.get_future();
    if (batch.ops.empty()) {
        state->promise.set_value(BatchResult{});
        return fut;
    }
    state->result.results.resize(batch.ops.size());
    state->remaining.store(
        static_cast<std::uint32_t>(batch.ops.size()),
        std::memory_order_relaxed);
    if (obs::metricsEnabled())
        frontendMetrics().batchOps.record(batch.ops.size());

    const WallClock::time_point now = WallClock::now();
    for (std::size_t i = 0; i < batch.ops.size(); ++i) {
        Op &op = batch.ops[i];
        if (op.id >= engine.splitter().numBlocks())
            LAORAM_FATAL("operation on block ", op.id,
                         " outside the block space of ",
                         engine.splitter().numBlocks());
        state->result.results[i].id = op.id;

        PendingOp pending;
        pending.type = op.type;
        pending.localId = engine.splitter().localId(op.id);
        pending.payload = std::move(op.payload);
        pending.batch = state;
        pending.slot = static_cast<std::uint32_t>(i);
        pending.submitted = now;

        BoundedQueue<PendingOp> &queue =
            lanes[engine.splitter().shardOf(op.id)]->admission();
        if (!queue.push(std::move(pending))) {
            // Queue closed (submit after stop): fail the batch.
            // Operations already admitted still serve — their side
            // effects apply — but the rejected flag makes the last
            // completer fail the future.
            if (obs::metricsEnabled())
                frontendMetrics().rejects.add(batch.ops.size() - i);
            state->rejected.store(true, std::memory_order_release);
            state->complete(
                static_cast<std::uint32_t>(batch.ops.size() - i));
            break;
        }
        if (obs::metricsEnabled())
            frontendMetrics().admissionDepth.inc();
    }
    return fut;
}

void
ServeFrontend::start()
{
    if (started)
        LAORAM_FATAL("ServeFrontend::start called twice (a frontend "
                     "serves one run; build a new one to serve again)");
    started = true;

    // The frontend owns the touch callback while serving: route each
    // touched block back to its lane's pending-operation plan.
    engine.setTouchCallback(
        [this](BlockId globalId, std::vector<std::uint8_t> &payload) {
            lanes[engine.splitter().shardOf(globalId)]->onTouch(
                engine.splitter().localId(globalId), payload);
        });

    driver = std::thread([this] {
        try {
            report_ = engine.serve(*this);
        } catch (...) {
            driverError = std::current_exception();
        }
    });
}

void
ServeFrontend::flush()
{
    PendingOp marker;
    marker.flushMarker = true;
    for (const std::unique_ptr<ShardLane> &lane : lanes) {
        // push() returning false just means the lane already shut
        // down — nothing left to flush there.
        (void)lane->admission().push(marker);
    }
}

core::ShardedPipelineReport
ServeFrontend::stop()
{
    if (!started)
        LAORAM_FATAL("ServeFrontend::stop before start");
    if (stopped)
        return report_;
    for (const std::unique_ptr<ShardLane> &lane : lanes)
        lane->admission().close();
    driver.join();
    engine.setTouchCallback(nullptr);
    stopped = true;
    if (driverError)
        std::rethrow_exception(driverError);
    return report_;
}

} // namespace laoram::serve
