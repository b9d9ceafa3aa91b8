/**
 * @file
 * ServeSource — the one abstraction behind every LAORAM run loop.
 *
 * Every LAORAM run does the same thing: chunk an access stream into
 * look-ahead windows, preprocess each window with its window-derived
 * path stream, and serve the windows in order. ServeSource makes that
 * one loop: a source *produces* numbered windows of raw accesses on
 * demand, and BatchPipeline::run(ServeSource&) is the single serving
 * loop that preprocesses and serves them, with stage 1 on a
 * preprocessor pool (Concurrent mode) or inline on the serving thread
 * (Simulated mode). Laoram::runTrace, the trace overload of
 * BatchPipeline::run and ShardedLaoram::runTrace are thin adapters
 * over TraceSource; the online session ingress (src/serve/)
 * implements the same interface and inherits the whole pipeline
 * (preprocessor pool, reorder stage, backpressure, determinism
 * contract) for free.
 *
 * Contract (what keeps the pipeline deadlock-free and deterministic):
 *
 *  - nextWindow() is thread-safe and assigns window indices
 *    contiguously (0, 1, 2, ...), returning each index together with
 *    its data. An index is only ever handed out once, *with* its
 *    accesses — so every claimed reorder-window sequence number is
 *    eventually pushed, the invariant ReorderWindow's deadlock-freedom
 *    rests on (see core/reorder_window.hh).
 *  - nextWindow() may block until a window's worth of accesses exists
 *    (the online ingress does); it returns false only at permanent
 *    end of stream.
 *  - The window contents must be a pure function of the source's own
 *    state, never of pipeline scheduling: the pipeline calls
 *    nextWindow from preprocessor threads in arbitrary order, and the
 *    determinism contract (identical bytes for any prepThreads /
 *    queueDepth / pool size) holds only if window w holds the same
 *    accesses every time the same logical stream is replayed.
 *  - windowServing/windowServed fire on the serving thread, strictly
 *    in window order, around each window's stage-2 ORAM work. They
 *    are where an online source applies request payloads (via the
 *    engine touch callback) and completes futures.
 *  - A source that knows its whole stream in advance (TraceSource)
 *    sets SourceWindow::stream on every window it hands out, and its
 *    windows must be exactly that stream's slices. The pipeline then
 *    links each window's last occurrences to their next bin in a
 *    later window (LookaheadLinks, core/preprocessor.hh), once per
 *    run. A source whose future is unknown (the online ingress)
 *    leaves it null and keeps in-window linking.
 */

#ifndef LAORAM_CORE_SERVE_SOURCE_HH
#define LAORAM_CORE_SERVE_SOURCE_HH

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/preprocessor.hh"
#include "core/superblock.hh"
#include "util/latency_histogram.hh"

namespace laoram::core {

/** One claimed look-ahead window of raw accesses, in stream order. */
struct SourceWindow
{
    std::uint64_t windowIndex = 0; ///< contiguous stream position
    std::uint64_t traceOffset = 0; ///< first access's stream offset
    std::vector<BlockId> accesses; ///< raw ids (duplicates allowed)
    /**
     * The source's whole known stream, this window included, or null
     * when the future is unknown. Owned by the source.
     */
    const KnownStream *stream = nullptr;
};

/** A producer of numbered look-ahead windows (see file comment). */
class ServeSource
{
  public:
    virtual ~ServeSource() = default;

    /**
     * Claim the next window: blocks until one is available, fills
     * @p out, and returns true; returns false at end of stream.
     * Thread-safe; indices are assigned contiguously per source.
     */
    virtual bool nextWindow(SourceWindow &out) = 0;

    /**
     * Serving-thread hook: window @p windowIndex is about to be
     * served (its bins will run through the engine next).
     */
    virtual void windowServing(std::uint64_t windowIndex)
    {
        (void)windowIndex;
    }

    /**
     * Serving-thread hook: window @p windowIndex finished serving —
     * every member was touched and the path unions written back.
     */
    virtual void windowServed(std::uint64_t windowIndex)
    {
        (void)windowIndex;
    }

    /**
     * Per-request latency sink, or nullptr when the source has no
     * request timestamps (trace replay). When non-null, the pipeline
     * publishes its report() as PipelineReport::latency after the
     * run. Recording happens on the source's own threads; the
     * pipeline only reads it after the serving loop finished.
     */
    virtual StreamingHistogram *latencyHistogram() { return nullptr; }
};

/**
 * The legacy offline path as a ServeSource: slices a pre-built trace
 * into fixed windows, each carrying the whole trace as its known
 * stream. Thread-safe claiming via an atomic ticket; the trace must
 * outlive the source and every run that serves it.
 */
class TraceSource final : public ServeSource
{
  public:
    /**
     * @param windowAccesses accesses per window; 0 = whole trace.
     * @param firstWindowIndex stream position of the trace's first
     *        window: 0 for a fresh run; a restored engine resuming
     *        mid-stream passes its windowsServed() and hands this
     *        source only the *remaining* trace suffix, so emitted
     *        window indices (and trace offsets) continue the original
     *        stream's numbering. Links only look forward, so the
     *        suffix's link table matches the original run's for
     *        every remaining window.
     */
    TraceSource(const std::vector<BlockId> &trace,
                std::uint64_t windowAccesses,
                std::uint64_t firstWindowIndex = 0);

    bool nextWindow(SourceWindow &out) override;

    /** Total windows this source will emit. */
    std::uint64_t numWindows() const;

  private:
    const std::vector<BlockId> &trace;
    std::uint64_t window;
    std::uint64_t firstWindow;
    KnownStream known; ///< the whole trace, as every window's stream
    std::atomic<std::uint64_t> nextIndex{0};
};

/**
 * A per-shard bundle of ServeSources for ShardedLaoram::serve: lane s
 * of the serving pool drives shardSource(s) through its own
 * BatchPipeline. Implementations must keep each shard source
 * independently consumable — lanes run concurrently.
 */
class ShardedServeSource
{
  public:
    virtual ~ShardedServeSource() = default;

    /** Shard @p shard's window stream (engine-local block ids). */
    virtual ServeSource &shardSource(std::uint32_t shard) = 0;
};

} // namespace laoram::core

#endif // LAORAM_CORE_SERVE_SOURCE_HH
