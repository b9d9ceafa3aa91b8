/**
 * @file
 * The LAORAM client — the paper's primary contribution (§IV).
 *
 * Runs over the same PathORAM storage tree (optionally fat, §V), but
 * serves *superblock bins* instead of single blocks: the preprocessor
 * guarantees that by the time a bin is trained, all of its members
 * were remapped onto the bin's path by their previous access, so one
 * path read feeds S blocks. Members are then remapped to their own
 * future-bin paths and the fetched paths are written back greedily.
 *
 * The engine still implements the single-access OramEngine interface
 * (degenerating to PathORAM behaviour) so it can be dropped anywhere a
 * generic ORAM is expected; runTrace() is where the look-ahead
 * machinery engages.
 */

#ifndef LAORAM_CORE_LAORAM_CLIENT_HH
#define LAORAM_CORE_LAORAM_CLIENT_HH

#include <functional>
#include <memory>

#include "cache/hot_cache.hh"
#include "core/preprocessor.hh"
#include "core/superblock.hh"
#include "oram/engine.hh"

namespace laoram::core {

/** LAORAM knobs layered on the shared EngineConfig. */
struct LaoramConfig
{
    oram::EngineConfig base;

    /** S: blocks fused per superblock (paper sweeps 2, 4, 8). */
    std::uint64_t superblockSize = 4;

    /**
     * Accesses preprocessed per look-ahead window; 0 means the whole
     * trace at once ("an entire epoch", §IV-B-2). Blocks whose next
     * bin is neither in their window nor within lookaheadHorizon get
     * uniform random paths at their access, exactly like PathORAM.
     */
    std::uint64_t lookaheadWindow = 0;

    /**
     * How far past its own window a bin member may be linked, in
     * accesses, when the served source knows its stream in advance
     * (trace runs: runTrace, BatchPipeline over a TraceSource,
     * sharded traces). Each run then links every window's last
     * occurrences to their next bin in a later window, in one
     * backward pass when it starts (LookaheadLinks,
     * core/preprocessor.hh), so that bin reads one path for them
     * too. kWholeStream (default) links up to the end of the stream,
     * the paper's whole-epoch look-ahead; 0 links inside each window
     * only; a finite H links only next bins that start fewer than H
     * accesses after the member's bin. Online sources, whose future
     * is unknown, always link inside the window only.
     */
    std::uint64_t lookaheadHorizon = kWholeStream;

    /**
     * Accesses served per *training batch*: the client reads every
     * path the batch needs, trains, then writes the whole path union
     * back — the paper's deployment ("issues read requests to all the
     * paths associated with the entries in the upcoming training
     * batch", §IV-A). 0 serves each superblock bin individually.
     * Larger batches amortise client round trips AND relieve stash
     * pressure (the union write-back covers more nodes per write);
     * bin granularity is what reproduces the paper's Fig. 8 stash
     * growth regime.
     */
    std::uint64_t batchAccesses = 0;

    /**
     * Optional trusted-client hot-row cache (src/cache/). Purely a
     * payload-side accelerator: the access schedule, RNG streams and
     * server-visible trace are byte-identical with it on or off.
     */
    cache::CacheConfig cache{};
};

/** Look-ahead ORAM engine. */
class Laoram final : public oram::TreeOramBase
{
  public:
    /** Callback applied to each member payload at bin-access time. */
    using TouchFn =
        std::function<void(BlockId, std::vector<std::uint8_t> &)>;

    explicit Laoram(const LaoramConfig &cfg);

    std::string name() const override;

    /**
     * Single-block access without look-ahead metadata: identical to
     * PathORAM (a bin of size 1 with a random future path).
     */
    void access(BlockId id, oram::AccessOp op, const std::uint8_t *in,
                std::size_t len, std::vector<std::uint8_t> *out) override;

    /**
     * Preprocess @p trace in look-ahead windows and serve it bin by
     * bin — the paper's end-to-end flow. Adapter over the one
     * ServeSource serving loop: a Simulated-mode BatchPipeline on the
     * calling thread (see core/serve_source.hh), which prepares each
     * window inline and spawns no thread. This serial run is the
     * reference leg of the determinism contract.
     */
    void runTrace(const std::vector<BlockId> &trace) override;

    /**
     * Serve one preprocessed window: every bin (or training batch,
     * when batchAccesses > 0) in stream order. Used both by the serial
     * runTrace and by the concurrent pipeline's serving thread.
     */
    void serveWindow(const PreprocessResult &window);

    /**
     * The seed the engine derives its internal preprocessor from. A
     * pipeline preprocessing on behalf of this engine must seed its
     * own Preprocessor identically to reproduce the serial runTrace
     * byte for byte.
     */
    std::uint64_t preprocessorSeed() const
    {
        return lcfg.base.seed ^ kPrepSeedSalt;
    }

    /** Salt folded into the engine seed for the preprocessor stream. */
    static constexpr std::uint64_t kPrepSeedSalt = 0x1AA0;

    /**
     * Serve a run of consecutive bins as one training batch: one
     * union read for every path the batch touches (shared prefix
     * nodes fetched once), all member touches and remaps onto their
     * future paths, one union write-back, then background eviction.
     * A single bin (count 1) is the paper's per-bin access: in steady
     * state its members share one current path, so it reads one path.
     */
    void accessBatch(const SuperblockBin *bins, std::size_t count);

    /** Install a payload hook (used by the training examples). */
    void setTouchCallback(TouchFn fn) { touchFn = std::move(fn); }

    /** The attached hot-row cache, or nullptr when disabled. */
    cache::HotEmbeddingCache *hotCache() { return cache_.get(); }
    const cache::HotEmbeddingCache *hotCache() const
    {
        return cache_.get();
    }

    const LaoramConfig &laoramConfig() const { return lcfg; }

    /** Aggregate preprocessing statistics over runTrace() calls. */
    std::uint64_t binsFormed() const { return nBins; }
    std::uint64_t accessesPreprocessed() const { return nPreprocessed; }
    std::uint64_t futureLinkedMembers() const { return nFutureLinked; }

    /**
     * Windows fully served so far (via serveWindow). After a
     * restoreFrom this tells the caller where to resume a trace:
     * replay the remaining windows with
     * PipelineConfig::firstWindowIndex = windowsServed() and the
     * per-window seed streams line up byte for byte.
     */
    std::uint64_t windowsServed() const { return nWindowsServed; }

    /** Adds superblock/look-ahead counters to the tree sections. */
    void saveClientState(serde::Serializer &s) const override;
    void restoreClientState(serde::Deserializer &d) override;

  private:
    /**
     * Run the hot-cache protocol around @p apply, which updates @p id's
     * stash @p payload, so hot rows are authoritative in client DRAM
     * while the stash payload still carries the same final bytes as a
     * cache-off run. @p newOp marks the caller's op as new (a single
     * access) rather than a scheduled bin touch: only a new op still
     * applies after the cache flushed deferred admission-time ops.
     */
    template <typename Apply>
    void withHotCache(BlockId id, std::vector<std::uint8_t> &payload,
                      bool newOp, Apply &&apply);

    LaoramConfig lcfg;
    TouchFn touchFn;
    std::unique_ptr<cache::HotEmbeddingCache> cache_;

    std::uint64_t nBins = 0;
    std::uint64_t nPreprocessed = 0;
    std::uint64_t nFutureLinked = 0;
    std::uint64_t nWindowsServed = 0;

    std::vector<oram::Leaf> scratchLeaves;

    /** Per-bin/batch remap staging for PositionMap::setBatch. */
    std::vector<BlockId> scratchRemapIds;
    std::vector<oram::Leaf> scratchRemapLeaves;
};

} // namespace laoram::core

#endif // LAORAM_CORE_LAORAM_CLIENT_HH
