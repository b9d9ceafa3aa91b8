/**
 * @file
 * Remote-KV slot storage: the tree served over a network-shaped RPC
 * link instead of local memory.
 *
 * Two halves speak a small length-prefixed binary protocol over a
 * stream socket (an AF_UNIX socketpair when the server is hosted
 * in-process):
 *
 *  - RemoteKvServer — the untrusted storage node. One service thread
 *    per connection pops request frames, executes them against an
 *    *inner* SlotBackend (any existing backend: DRAM for a
 *    memory-tier KV node, mmap for a persistent one — the backends
 *    compose), applies the injectable latency/bandwidth shaper, and
 *    replies. Requests on one connection are processed strictly in
 *    order, which is the ordering contract the client's pipelining
 *    relies on.
 *
 *  - RemoteKvBackend — the client SlotBackend: ServerStorage moves
 *    whole ORAM paths through the vectored readSlots/writeSlots
 *    calls (the only transfer calls any backend has), and each such
 *    call becomes exactly ONE request frame — a path is one RPC,
 *    never one RPC per slot. Every request waits in one ordered
 *    queue (the replay log) until its response arrives. Writes are
 *    asynchronous: the request is sent and left in that queue, at
 *    most RemoteKvConfig::windowDepth deep, so the serving thread
 *    keeps going while the write travels. Every other call is
 *    synchronous: its request queues behind any outstanding writes
 *    on the same ordered stream, and the call harvests responses
 *    until the queue is empty, so a read can never observe a stale
 *    slot. The time the client *does* block — harvesting write acks
 *    when the window is full, waiting for read payloads — lands in
 *    the IoStats ledger, which is how PipelineReport::wallIoNs comes
 *    to include genuine RPC waits.
 *
 * Wire format (all integers little-endian, like every on-disk /
 * on-wire structure in this repo):
 *
 *   frame    := u32 bodyLen, body
 *   body     := u8 opcode, u64 seq, payload...
 *   response := same framing; opcode = request opcode | 0x80, seq
 *               echoed; a response is sent for every request.
 *
 *   Hello      c->s: u64 slots, u64 recordBytes, u64 sessionId (!= 0)
 *              s->c: u64 slots, u64 recordBytes, u64 metaCapacity,
 *                    u8 persistent, u8 openedExisting
 *   ReadSlots  c->s: u64 n, u64 slot[n]
 *              s->c: u8 record[n * recordBytes]
 *   WriteSlots c->s: u64 n, u64 slot[n], u8 record[n * recordBytes]
 *              s->c: (empty ack)
 *   Flush      c->s: (empty)          s->c: (empty ack)
 *   ReadMeta   c->s: u64 len          s->c: u64 got, u8 data[got]
 *   WriteMeta  c->s: u64 len, data    s->c: (empty ack)
 *   Stat       c->s: (empty)          s->c: u64 residentBytes
 *
 * The shaper sleeps latencyNs + wireBytes / bytesPerSec per request
 * before replying, so a slow-remote regime (where the look-ahead
 * pipeline's prep threads earn their keep) reproduces deterministically
 * on any host; the IoStats *counts* are identical for any shaper
 * setting, only the measured nanoseconds change.
 *
 * Failure model: every client runs one connect path. It picks a
 * random replay session id, dials through the same bounded
 * exponential backoff + jitter loop at construction and after a
 * loss, keeps each request frame until its response arrives, and on
 * a lost connection (EOF, ECONNRESET, a hung server tripping
 * RemoteKvConfig::responseTimeoutMs) redials, re-handshakes and
 * replays its un-acked request window. Responses arrive strictly in
 * request order, so the un-acked RPCs are exactly the contiguous tail
 * of the stream, and re-sending them in order preserves
 * read-your-writes. The node discards (but still acks) replayed
 * mutations at-or-below the session's applied high-water mark, so a
 * write that was applied but whose ack was lost is not applied twice.
 * The two modes differ only in the dial: an *endpoint* client
 * (RemoteKvConfig::endpoint, a real out-of-process laoram_node) dials
 * the network; a self-hosted client asks its in-process node for a
 * fresh socketpair. When every retry is exhausted the client fails
 * with a clean LAORAM_FATAL ("remote-KV connection lost"); fail-fast
 * is simply maxRetries = 0. Handshake geometry mismatches throw
 * std::runtime_error at construction like an incompatible mmap
 * reopen.
 */

#ifndef LAORAM_STORAGE_REMOTE_BACKEND_HH
#define LAORAM_STORAGE_REMOTE_BACKEND_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/endpoint.hh"
#include "storage/slot_backend.hh"

namespace laoram::storage {

/** RPC opcodes (request values; responses are op | 0x80). */
enum class RemoteOp : std::uint8_t
{
    Hello = 1,
    ReadSlots = 2,
    WriteSlots = 3,
    Flush = 4,
    ReadMeta = 5,
    WriteMeta = 6,
    Stat = 7,
};

/**
 * In-process remote-KV storage node: serves the wire protocol above
 * over stream sockets, executing against an inner SlotBackend.
 *
 * connectClient() hands out one end of a fresh socketpair and serves
 * the other end, so the self-hosted RemoteKvBackend gets a real
 * kernel-buffered byte stream without any port management or
 * listening socket. Multiple connections share the inner backend under
 * a mutex (requests across connections interleave at frame
 * granularity; within a connection they are strictly ordered).
 */
class RemoteKvServer
{
  public:
    RemoteKvServer(std::unique_ptr<SlotBackend> inner,
                   const RemoteKvConfig &shaping);
    ~RemoteKvServer();

    RemoteKvServer(const RemoteKvServer &) = delete;
    RemoteKvServer &operator=(const RemoteKvServer &) = delete;

    /**
     * Open a new connection: returns the client-side end of a fresh
     * socketpair (caller owns and closes it) and serveSocket()s the
     * other end. On a shut-down node the client end sees EOF at once,
     * exactly like a dial to a dead remote node.
     */
    int connectClient();

    /**
     * Serve an already-connected stream socket (an accepted TCP/UDS
     * connection or a connectClient() socketpair end): takes
     * ownership of @p fd and spawns its service thread, or closes it
     * when the node is already shut down.
     */
    void serveSocket(int fd);

    /**
     * Hard-stop the node: shut down every connection socket (which
     * unblocks service threads mid-recv) and join the threads. Models
     * a remote node dying mid-trace; the destructor runs the same
     * path for a clean teardown.
     */
    void shutdown();

    /**
     * Graceful stop (laoram_node's SIGTERM path): shut down only the
     * *read* side of every connection, so a request already being
     * processed still gets its response out, join the service
     * threads, then flush the inner backend so a persistent node's
     * acked writes reach media before the process exits.
     */
    void drain();

    /** The backend this node serves (server-side IoStats live here). */
    const SlotBackend &inner() const { return *store; }

  private:
    void serveConnection(int fd);

    /** Shared teardown: @p how is SHUT_RD (drain) or SHUT_RDWR. */
    void stopConnections(int how);

    /** Shaper: block this request for its modeled network time. */
    void shapeDelay(std::uint64_t wireBytes) const;

    /**
     * Replay idempotence: true when a mutating request (WriteSlots /
     * WriteMeta / Flush) at @p seq from @p sessionId (nonzero — the
     * Hello enforces it) is new and must execute; false when it is a
     * replayed duplicate the node already applied — the caller still
     * acks it, silently. Advances the session's high-water mark when
     * it returns true. Called with storeMu held through the apply, so
     * a replay on a new connection can only discard a duplicate whose
     * first copy (still running on the dead connection's thread) has
     * already landed.
     */
    bool admitMutation(std::uint64_t sessionId, std::uint64_t seq);

    std::unique_ptr<SlotBackend> store;
    RemoteKvConfig shaping;

    /** Serializes inner-backend access and guards sessionHighWater. */
    std::mutex storeMu;

    /**
     * Per-session applied high-water marks (guarded by storeMu).
     * Lost on node restart — harmless, because a restarted node sees
     * the client replay a contiguous ordered tail whose re-execution
     * is naturally idempotent (same slots, same bytes).
     */
    std::unordered_map<std::uint64_t, std::uint64_t> sessionHighWater;

    std::mutex connMu; ///< guards conns (connect vs shutdown)
    struct Connection
    {
        int fd = -1;
        std::thread thread;
    };
    std::vector<Connection> conns;
    bool stopped = false;
};

/**
 * Client-side SlotBackend speaking the remote-KV protocol.
 * One vectored readSlots/writeSlots call = one RPC; writes pipeline
 * asynchronously through a bounded window of un-acked requests, the
 * same ordered queue a reconnect replays. Single-threaded per
 * instance, like every SlotBackend.
 */
class RemoteKvBackend final : public SlotBackend
{
  public:
    /**
     * The one constructor, used by makeBackend(--storage=remote).
     * When cfg.remote.endpoint is set the client dials the
     * out-of-process laoram_node there, and @p metaBytes is ignored —
     * the node owns its meta sizing. Otherwise it hosts an in-process
     * RemoteKvServer over the inner backend @p cfg describes (mmap
     * when cfg.path is set, DRAM otherwise) and dials that through
     * socketpairs. Either way the first connect runs the same
     * retry/backoff loop as a mid-run reconnect.
     *
     * @throws ShapeMismatch when the handshake reports a different
     *         geometry than (@p slots, @p recordBytes).
     */
    RemoteKvBackend(const StorageConfig &cfg, std::uint64_t slots,
                    std::uint64_t recordBytes, std::uint64_t metaBytes);

    ~RemoteKvBackend() override;

    std::uint64_t residentBytes() const override;
    bool persistent() const override { return serverPersistent; }
    bool openedExisting() const override { return serverReopened; }

    std::uint64_t metaCapacity() const override { return serverMetaCap; }
    void writeMeta(const std::uint8_t *src, std::uint64_t len) override;
    std::uint64_t readMeta(std::uint8_t *dst,
                           std::uint64_t len) const override;

    /**
     * In-flight write RPCs right now (bounded by windowDepth). Between
     * calls only async writes are ever un-acked, so this is the whole
     * queue.
     */
    std::size_t inFlightWrites() const { return pendingRpcs.size(); }

  protected:
    void doReadSlots(const std::uint64_t *slots, std::size_t n,
                     std::uint8_t *dst) override;
    void doWriteSlots(const std::uint64_t *slots, std::size_t n,
                      const std::uint8_t *src) override;
    void doFlush() override;

  private:
    /**
     * One raw Hello exchange on @p helloFd, outside the pendingRpcs
     * machinery (seq 0, never used by data RPCs) so a recovery
     * re-handshake cannot disturb the in-flight window. Caches the
     * server facts on success; false on a connection-level failure
     * (caller retries or fatals); throws std::runtime_error on a
     * geometry mismatch.
     */
    bool rawHello(int helloFd);

    /**
     * Park a new request at the tail of pendingRpcs and start its
     * frame (opcode + seq header written, room reserved for
     * @p payloadBytes more); the caller appends the payload directly
     * into the frame that a reconnect replays — no intermediate
     * buffer — and then dispatchRequest() sends.
     */
    std::vector<std::uint8_t> &beginRequest(RemoteOp op,
                                            std::size_t payloadBytes = 0);

    /**
     * Send the frame built since beginRequest(). Never blocks on the
     * server (only on socket-buffer backpressure).
     */
    void dispatchRequest();

    /**
     * Receive exactly one response frame, pop the oldest pending RPC
     * it answers, and return the response body. A dead or hung
     * (responseTimeoutMs exceeded) connection runs the recovery path
     * first, then keeps harvesting the replayed stream.
     */
    std::vector<std::uint8_t> harvestOne();

    /**
     * Synchronous RPC: send the frame built since beginRequest() and
     * harvest until pendingRpcs is empty (acking every write queued
     * ahead of it); returns this request's response body.
     */
    std::vector<std::uint8_t> roundTrip();

    /**
     * Fatal: retries are exhausted or a response body is malformed.
     * Never returns.
     */
    [[noreturn]] void connectionLost(const char *what) const;

    /**
     * The connection died (or timed out) during @p what: redial with
     * bounded backoff + jitter, re-handshake, and replay every pending
     * request frame in order. Fatal (via connectionLost) when
     * maxRetries dials all fail.
     */
    void recoverConnection(const char *what);

    /**
     * One backoff-paced dial + raw re-handshake attempt loop; returns
     * the connected, handshaken fd or fatals. Shared by construction
     * and recovery (construction tolerates a node that is still
     * starting up the same way recovery tolerates one restarting).
     * The dial is the mode's only difference: a socketpair from the
     * self-hosted node, or a network dial of the endpoint.
     */
    int dialWithRetry(const char *what);

    std::unique_ptr<RemoteKvServer> server; ///< self-hosted mode only
    RemoteKvConfig cfg;
    net::Endpoint remoteEp; ///< parsed cfg.endpoint (endpoint mode)
    int fd = -1;

    std::uint64_t nextSeq = 1;
    std::uint64_t sessionId = 0; ///< replay identity sent in Hello

    /** Jitter source for backoff pacing (timing only, never data). */
    std::mt19937_64 jitterRng;

    /**
     * Responses arrive strictly in request order, so the un-acked
     * RPCs are a FIFO: the replay log and the async write window.
     */
    struct PendingRpc
    {
        std::uint64_t seq = 0;
        std::uint8_t op = 0;
        /** Tracer timestamp at dispatch (-1 = tracing was off). */
        std::int64_t dispatchNs = -1;
        /** Full request frame: what is sent, and kept for replay. */
        std::vector<std::uint8_t> frame;
    };
    std::deque<PendingRpc> pendingRpcs;

    // Handshake-cached server facts.
    bool serverPersistent = false;
    bool serverReopened = false;
    std::uint64_t serverMetaCap = 0;
};

} // namespace laoram::storage

#endif // LAORAM_STORAGE_REMOTE_BACKEND_HH
