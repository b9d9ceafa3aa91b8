/**
 * @file
 * The storage-backend subsystem: where the ORAM tree's slot records
 * physically live.
 *
 * ServerStorage owns serialization and encryption-at-rest; a
 * SlotBackend owns the *bytes*. Backends store fixed-size records
 * (recordBytes each) addressed by slot index, and every backend moves
 * them the same way: through the vectored readSlots/writeSlots pair,
 * one call per ORAM path (or path union), into and out of a
 * caller-owned staging buffer. A backend implements only
 * doReadSlots/doWriteSlots — a memcpy loop for DRAM and an mmap file,
 * one RPC for the remote KV — and may coalesce, prefetch or batch the
 * whole path inside that one call.
 *
 * Every backend keeps an IoStats ledger (ops, slots, bytes, measured
 * nanoseconds) that the pipeline reports as the serving thread's
 * genuine I/O stall component. The same ledger is the live
 * storage.<kind>.* metric series: each backend attaches it to its
 * kind's LedgerSet for its lifetime and the sampler pulls it.
 */

#ifndef LAORAM_STORAGE_SLOT_BACKEND_HH
#define LAORAM_STORAGE_SLOT_BACKEND_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "obs/metrics.hh"

namespace laoram::storage {

/**
 * Monotonic I/O ledger of one backend (value type; freely copyable).
 * Single-writer relaxed fields, so the metrics sampler may read a
 * live backend's ledger from another thread.
 */
struct IoStats
{
    using Count = obs::Relaxed<std::uint64_t>;
    using Nanos = obs::Relaxed<std::int64_t>;

    Count readOps = 0;  ///< read calls issued (vectored = 1)
    Count writeOps = 0; ///< write calls issued (vectored = 1)
    Count slotsRead = 0;
    Count slotsWritten = 0;
    Count bytesRead = 0;
    Count bytesWritten = 0;
    Count flushes = 0;
    Nanos readNs = 0;  ///< measured wall time inside reads
    Nanos writeNs = 0; ///< measured wall time inside writes
    Nanos flushNs = 0; ///< measured wall time inside flush()

    /** Total measured backend time (read + write + flush). */
    std::int64_t totalNs() const { return readNs + writeNs + flushNs; }

    /** Element-wise difference (this - start), for interval metrics. */
    IoStats since(const IoStats &start) const;

    /** Element-wise accumulation (shard aggregation). */
    IoStats &operator+=(const IoStats &other);
};

/** How flush() pushes a persistent backend's dirty pages to media. */
enum class Durability
{
    Buffered, ///< page cache only; the OS writes back eventually
    Async,    ///< msync(MS_ASYNC): schedule write-back, don't wait
    Sync,     ///< msync(MS_SYNC): block until bytes are on media
};

/** Which SlotBackend implementation a ServerStorage should build. */
enum class BackendKind
{
    Dram,     ///< in-process heap array (default; not persistent)
    MmapFile, ///< file-backed mmap tree; survives process restart
    Remote,   ///< remote-KV node over batched/async RPC
};

/** Stable lower-case name for CLI/report output. */
const char *backendKindName(BackendKind kind);

/**
 * Remote-KV link knobs (BackendKind::Remote): the client's async
 * pipelining window and the server-side network shaper that makes
 * slow-remote regimes reproducible on any host. The shaper changes
 * only measured nanoseconds — IoStats *counts* are identical for any
 * setting.
 */
struct RemoteKvConfig
{
    /** Modeled one-way service latency added to every RPC (0 = off). */
    std::int64_t latencyNs = 0;

    /**
     * Modeled link bandwidth: each RPC additionally waits
     * wireBytes / bytesPerSec (0 = unlimited).
     */
    std::uint64_t bytesPerSec = 0;

    /**
     * Maximum write/flush RPCs in flight before the client blocks
     * harvesting completions. Reads always pipeline behind the
     * outstanding writes on the ordered stream, so this bounds client
     * memory and socket backlog, not correctness.
     */
    std::size_t windowDepth = 4;

    /**
     * Dial target of an out-of-process laoram_node ("host:port" or
     * "unix:PATH"; see net/endpoint.hh). Empty = the client hosts an
     * in-process node and dials it through socketpairs. Only the dial
     * differs: both modes reconnect and replay on a lost connection
     * the same way.
     */
    std::string endpoint;

    /**
     * Redial attempts (after the first dial) at connect time and per
     * connection loss before giving up fatally; 0 = fail fast.
     * Every attempt waits backoffBaseMs * 2^attempt, capped at
     * backoffMaxMs, plus up to 50% random jitter so a fleet of shard
     * clients does not redial a restarted node in lock-step.
     */
    std::uint32_t maxRetries = 8;
    std::int64_t backoffBaseMs = 10;
    std::int64_t backoffMaxMs = 2000;

    /**
     * Deadline on each response wait (0 = wait forever). A server
     * that hangs without closing the socket — network black hole,
     * stalled node — converts into the reconnect path instead of
     * blocking the serving thread indefinitely.
     */
    std::int64_t responseTimeoutMs = 0;
};

/** Backend-construction knobs threaded through EngineConfig. */
struct StorageConfig
{
    BackendKind kind = BackendKind::Dram;

    /** Backing file for MmapFile (required; created if missing). */
    std::string path;

    /** flush() behaviour of a persistent backend. */
    Durability durability = Durability::Buffered;

    /**
     * Reopen @p path if it already holds a compatible tree instead of
     * re-initialising: the storage skips its dummy-slot init and the
     * previous run's records (and persisted encryption epochs) are
     * served as-is.
     */
    bool keepExisting = false;

    /**
     * Remote-KV link parameters (BackendKind::Remote only). The
     * in-process node composes over the other knobs above: with
     * `path` set the node persists its tree via MmapFileBackend
     * (durability/keepExisting apply server-side), otherwise it
     * serves from DRAM.
     */
    RemoteKvConfig remote{};
};

/**
 * Trusted client-state snapshot knobs, threaded through EngineConfig
 * next to StorageConfig. The snapshot (position map, stash, RNG
 * streams, meter) is a *client-side sidecar file*: it contains the
 * position map — exactly the mapping ORAM exists to hide — so it is
 * never written into the untrusted backend's meta-blob region, and a
 * deployment must protect it like any other trusted-client memory.
 */
struct CheckpointConfig
{
    /** Sidecar snapshot file ("" = checkpointing disabled). */
    std::string path;

    /**
     * Restore trusted client state from @p path at construction.
     * Requires a persistent backend reopened with keepExisting: the
     * snapshot is only meaningful against the tree it was taken
     * with.
     */
    bool restore = false;
};

/**
 * Abstract fixed-record slot store. All methods are single-threaded
 * per instance (each ORAM engine owns exactly one storage).
 */
class SlotBackend
{
  public:
    /** @p kind names the backend and its storage.<kind>.* series. */
    SlotBackend(std::uint64_t slots, std::uint64_t recordBytes,
                std::string kind);
    virtual ~SlotBackend();

    SlotBackend(const SlotBackend &) = delete;
    SlotBackend &operator=(const SlotBackend &) = delete;

    const std::string &name() const { return kind; }

    std::uint64_t slots() const { return nSlots; }
    std::uint64_t recordBytes() const { return recBytes; }

    /**
     * Vectored path operations: @p dst / @p src hold n records
     * back-to-back, record i belonging to slots[i]. One call covers
     * one whole ORAM path (or path union), so a backend can coalesce
     * adjacent slots, prefetch, or issue one real I/O per path. Every
     * slot is range-checked here; a call with n == 0 is a no-op and
     * is not counted.
     */
    void readSlots(const std::uint64_t *slots, std::size_t n,
                   std::uint8_t *dst);
    void writeSlots(const std::uint64_t *slots, std::size_t n,
                    const std::uint8_t *src);

    /** Apply the configured durability policy (no-op for DRAM). */
    void flush();

    // ---- Introspection / persistence. ----

    /** Bytes of this store currently resident in DRAM. */
    virtual std::uint64_t residentBytes() const = 0;

    /** True when the slot data outlives the process (file-backed). */
    virtual bool persistent() const { return false; }

    /**
     * True when construction attached to an existing compatible store
     * instead of creating a fresh one (the owner must then skip its
     * dummy initialisation and restore persisted metadata).
     */
    virtual bool openedExisting() const { return false; }

    /** Drop clean pages from the page cache (cold-cache benching). */
    virtual void dropPageCache() {}

    /**
     * Small client-metadata blob persisted next to the slot data
     * (ServerStorage stores its encryption epoch table here so an
     * encrypted tree decrypts after reopen). Non-persistent backends
     * expose zero capacity.
     */
    virtual std::uint64_t metaCapacity() const { return 0; }
    virtual void
    writeMeta(const std::uint8_t *src, std::uint64_t len)
    {
        (void)src;
        (void)len;
    }
    virtual std::uint64_t
    readMeta(std::uint8_t *dst, std::uint64_t len) const
    {
        (void)dst;
        (void)len;
        return 0;
    }

    const IoStats &ioStats() const { return stats; }

  protected:
    /** Vectored transfers; every slot is already range-checked. */
    virtual void doReadSlots(const std::uint64_t *slots, std::size_t n,
                             std::uint8_t *dst) = 0;
    virtual void doWriteSlots(const std::uint64_t *slots, std::size_t n,
                              const std::uint8_t *src) = 0;

    virtual void doFlush() {}

    std::uint64_t nSlots;
    std::uint64_t recBytes;
    IoStats stats;

  private:
    /** Fatal unless every one of the @p n slots is in range. */
    void checkSlots(const std::uint64_t *slots, std::size_t n) const;

    const std::string kind;
    obs::LedgerSet<IoStats> &live; ///< this kind's pulled series
};

/**
 * A store refused because its size or slot count is not the tree's:
 * a keepExisting mmap reopen of a file of another size, or a remote
 * node that serves another slot count or record size.
 */
struct ShapeMismatch : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * Build the backend described by @p cfg for a tree of @p slots
 * records of @p recordBytes each, reserving @p metaBytes of persisted
 * metadata capacity (persistent backends only).
 *
 * Fatal on an impossible configuration (MmapFile without a path);
 * throws std::runtime_error when a keepExisting reopen finds an
 * incompatible file (ShapeMismatch when its size is not the tree's)
 * or a remote node serves another geometry (ShapeMismatch).
 */
std::unique_ptr<SlotBackend> makeBackend(const StorageConfig &cfg,
                                         std::uint64_t slots,
                                         std::uint64_t recordBytes,
                                         std::uint64_t metaBytes);

} // namespace laoram::storage

#endif // LAORAM_STORAGE_SLOT_BACKEND_HH
