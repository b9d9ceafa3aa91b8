/**
 * @file
 * The online serving frontend: concurrent client sessions in front of
 * a sharded LAORAM, coalesced into look-ahead windows.
 *
 * LAORAM's whole trick is seeing a window of *future* accesses; the
 * offline path gets that from a pre-built trace. Online, the future
 * is the requests already sitting in the admission queues: the
 * frontend's **coalescer** merges the operations of every session
 * into per-shard streams and cuts them into full look-ahead windows —
 * the same numbered SourceWindows a trace produces — which the
 * unchanged two-stage pipeline preprocesses and serves. Cross-session
 * coalescing subsumes shard-aware batching: a request is routed to
 * its shard's lane and packed next to whatever other sessions want
 * from that shard.
 *
 * Obliviousness: coalescing only changes *which* window a real access
 * lands in, never what the server observes about it — every window is
 * preprocessed into superblock bins whose paths are fresh uniform
 * draws, exactly as in trace replay, and short bins already pad their
 * path unions the same way. The server-visible sequence stays
 * (shard, uniform path) pairs; arrival timing is what any ORAM
 * deployment already leaks.
 *
 * Determinism: window contents are a pure function of the per-shard
 * *arrival order* of operations. Replaying the same arrival order
 * (e.g. submitting from one thread, or joining submitter threads
 * before flush()) reproduces payload bytes, position maps and stashes
 * for any prep-thread count or queue depth — the
 * session-replay differential suite locks this in. Concurrent
 * sessions make arrival order (and thus window packing) racy between
 * runs, but never unsafe: results are still exact per request.
 *
 * Lifecycle: construct over a ShardedLaoram, create sessions, then
 *   start()  — serving begins (a driver thread runs engine.serve)
 *   submit() — any time after construction; pre-start submissions
 *              queue up to the admission capacity
 *   flush()  — cut partial windows so everything pending completes
 *   stop()   — drain, shut down, and return the run's report
 *
 * Lanes only end their streams at stop(); engine.serve runs every
 * shard on its own serving thread, so no shard waits on another's.
 */

#ifndef LAORAM_SERVE_FRONTEND_HH
#define LAORAM_SERVE_FRONTEND_HH

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/sharded_laoram.hh"
#include "serve/request.hh"

namespace laoram::serve {

class ServeFrontend;

/**
 * A client session handle (copyable, cheap). Each session's batches
 * are applied in submission order; see request.hh for semantics.
 * Thread-safety: one session is used by one client thread; distinct
 * sessions submit concurrently without external locking.
 */
class Session
{
  public:
    /**
     * Submit a batch; the future resolves once every operation was
     * served and written back (or fails with RejectedError when
     * submitted after stop()). Blocks while its shard's admission
     * queue is full. Safe before start(): operations queue in
     * admission until serving begins.
     */
    std::future<BatchResult> submit(Batch batch);

    std::uint64_t id() const { return sid; }

  private:
    friend class ServeFrontend;
    Session(ServeFrontend &frontend, std::uint64_t sid)
        : frontend(&frontend), sid(sid)
    {
    }

    ServeFrontend *frontend;
    std::uint64_t sid;
};

/**
 * Session ingress + cross-session coalescer over one ShardedLaoram
 * (see file comment). Implements ShardedServeSource: shard lane s is
 * the window stream the engine's serving lane s consumes.
 *
 * The frontend owns the engine's touch callback while serving —
 * installing a training callback alongside online serving is not
 * supported (route training through Update operations instead).
 */
class ServeFrontend final : public core::ShardedServeSource
{
  public:
    /**
     * Admission-queue capacity per shard lane, in operations — the
     * frontend's backpressure bound: at most this many operations per
     * shard sit between submit() and window assembly; submit() blocks
     * while its shard's queue is full.
     */
    static constexpr std::size_t kAdmissionOps = 4096;

    explicit ServeFrontend(core::ShardedLaoram &engine);
    ~ServeFrontend() override;

    ServeFrontend(const ServeFrontend &) = delete;
    ServeFrontend &operator=(const ServeFrontend &) = delete;

    /** Open a new client session. */
    Session session();

    /** Begin serving: spawns the driver thread running engine.serve. */
    void start();

    /**
     * Cut every lane's pending partial window so all operations
     * submitted so far complete without waiting for future traffic to
     * fill their windows. Callable repeatedly.
     */
    void flush();

    /**
     * Drain everything admitted, end every lane's stream, join the
     * driver, and return the run's report (latency percentiles in
     * report.aggregate.latency). Idempotent; rethrows any serving
     * error.
     */
    core::ShardedPipelineReport stop();

    // ---- ShardedServeSource (consumed by engine.serve) ----
    core::ServeSource &shardSource(std::uint32_t shard) override;

  private:
    friend class Session;
    class ShardLane;

    std::future<BatchResult> submit(Batch batch);

    core::ShardedLaoram &engine;
    std::vector<std::unique_ptr<ShardLane>> lanes;
    std::thread driver;
    std::exception_ptr driverError;
    core::ShardedPipelineReport report_;
    std::atomic<std::uint64_t> nextSession{0};
    bool started = false;
    bool stopped = false;
};

} // namespace laoram::serve

#endif // LAORAM_SERVE_FRONTEND_HH
