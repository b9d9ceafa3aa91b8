#include "storage/remote_backend.hh"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace laoram::storage {

namespace {

constexpr std::uint32_t kMaxFrameBytes = 1u << 30; ///< 1 GiB sanity cap
constexpr std::uint8_t kResponseBit = 0x80;

obs::Gauge &
inflightWritesGauge()
{
    static obs::Gauge &g = obs::MetricsRegistry::instance().gauge(
        "storage.remote.inflight_writes",
        "async write/flush RPCs parked in the pipelining window");
    return g;
}

// node.* metrics: the storage-node side of the link (also live for a
// self-hosted in-process node, which runs the same frame loop).

obs::Counter &
nodeConnectionsCounter()
{
    static obs::Counter &c = obs::MetricsRegistry::instance().counter(
        "node.connections",
        "client connections accepted by the remote-KV node");
    return c;
}

obs::Gauge &
nodeActiveConnectionsGauge()
{
    static obs::Gauge &g = obs::MetricsRegistry::instance().gauge(
        "node.active_connections",
        "remote-KV node connections currently being served");
    return g;
}

obs::Counter &
nodeRpcsCounter()
{
    static obs::Counter &c = obs::MetricsRegistry::instance().counter(
        "node.rpcs", "request frames executed by the remote-KV node");
    return c;
}

obs::Counter &
nodeReplayDiscardsCounter()
{
    static obs::Counter &c = obs::MetricsRegistry::instance().counter(
        "node.replay_discards",
        "replayed mutations acked without re-execution (seq at or "
        "below the session high-water mark)");
    return c;
}

obs::Counter &
nodeClientReconnectsCounter()
{
    static obs::Counter &c = obs::MetricsRegistry::instance().counter(
        "node.client_reconnects",
        "successful client reconnect+replay recoveries");
    return c;
}

/** Span name for a completed RPC, by request opcode. */
const char *
rpcSpanName(std::uint8_t op)
{
    switch (static_cast<RemoteOp>(op)) {
      case RemoteOp::ReadSlots:
        return "rpc-read";
      case RemoteOp::WriteSlots:
        return "rpc-write";
      case RemoteOp::Flush:
        return "rpc-flush";
      default:
        return "rpc";
    }
}

/** Paranoia cap on slot counts from the wire (a path union is small). */
constexpr std::uint64_t kMaxSlotsPerRpc = 1u << 22;

inline void
appendU64(std::vector<std::uint8_t> &buf, std::uint64_t v)
{
    const std::size_t at = buf.size();
    buf.resize(at + sizeof(v));
    std::memcpy(buf.data() + at, &v, sizeof(v)); // little-endian hosts
}

inline std::uint64_t
readU64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

/** Send exactly @p len bytes; false on a dead peer (EPIPE/RESET). */
bool
sendAll(int fd, const std::uint8_t *data, std::size_t len)
{
    while (len > 0) {
        const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

using Clock = std::chrono::steady_clock;

/**
 * Receive exactly @p len bytes; false on EOF, a dead peer, or
 * @p deadline passing first. The default (epoch) deadline means none:
 * no poll, just blocking recv calls.
 */
bool
recvAll(int fd, std::uint8_t *data, std::size_t len,
        Clock::time_point deadline)
{
    const bool timed = deadline != Clock::time_point{};
    while (len > 0) {
        if (timed) {
            const auto now = Clock::now();
            if (now >= deadline)
                return false;
            const auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - now)
                    .count();
            pollfd pfd{};
            pfd.fd = fd;
            pfd.events = POLLIN;
            const int ready = ::poll(
                &pfd, 1, static_cast<int>(left > 0 ? left : 1));
            if (ready < 0) {
                if (errno == EINTR)
                    continue;
                return false;
            }
            if (ready == 0)
                return false; // deadline expired: the server is hung
        }
        const ssize_t n = ::recv(fd, data, len, 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false; // orderly shutdown mid-frame or at boundary
        data += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

/**
 * Receive one frame into @p body (replacing its contents) under an
 * optional whole-frame deadline (@p timeoutMs <= 0 waits forever).
 * False when the connection is gone; a timeout is indistinguishable
 * from a dead peer to the caller — both mean "this connection is not
 * going to answer".
 */
bool
recvFrame(int fd, std::vector<std::uint8_t> &body,
          std::int64_t timeoutMs)
{
    const Clock::time_point deadline =
        timeoutMs > 0 ? Clock::now() + std::chrono::milliseconds(timeoutMs)
                      : Clock::time_point{};
    std::uint32_t len = 0;
    if (!recvAll(fd, reinterpret_cast<std::uint8_t *>(&len),
                 sizeof(len), deadline))
        return false;
    if (len > kMaxFrameBytes)
        return false; // protocol corruption; drop the connection
    body.resize(len);
    return recvAll(fd, body.data(), len, deadline);
}

/** Frame + send @p body; false when the connection is gone. */
bool
sendFrame(int fd, const std::vector<std::uint8_t> &body)
{
    LAORAM_ASSERT(body.size() <= kMaxFrameBytes,
                  "RPC frame of ", body.size(),
                  " B exceeds the protocol cap");
    const std::uint32_t len = static_cast<std::uint32_t>(body.size());
    if (!sendAll(fd, reinterpret_cast<const std::uint8_t *>(&len),
                 sizeof(len)))
        return false;
    return sendAll(fd, body.data(), body.size());
}

} // namespace

// ===================================================== RemoteKvServer

RemoteKvServer::RemoteKvServer(std::unique_ptr<SlotBackend> inner,
                               const RemoteKvConfig &shaping)
    : store(std::move(inner)), shaping(shaping)
{
    LAORAM_ASSERT(store, "remote-KV server needs an inner backend");
}

RemoteKvServer::~RemoteKvServer()
{
    shutdown();
}

int
RemoteKvServer::connectClient()
{
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0)
        LAORAM_FATAL("socketpair() failed for remote-KV connection: ",
                     std::strerror(errno));
    serveSocket(sv[1]);
    return sv[0];
}

void
RemoteKvServer::serveSocket(int fd)
{
    std::lock_guard<std::mutex> lock(connMu);
    if (stopped) {
        // A dial racing (or after) a shutdown/drain: refuse quietly —
        // the peer's Hello sees EOF and it redials or fatals.
        ::close(fd);
        return;
    }
    Connection conn;
    conn.fd = fd;
    conn.thread = std::thread([this, fd] { serveConnection(fd); });
    conns.push_back(std::move(conn));
}

void
RemoteKvServer::stopConnections(int how)
{
    std::vector<Connection> victims;
    {
        std::lock_guard<std::mutex> lock(connMu);
        stopped = true;
        victims.swap(conns);
    }
    for (Connection &c : victims) {
        // shutdown (not close) so a service thread blocked in recv()
        // wakes up; SHUT_RD alone lets an in-progress response drain.
        ::shutdown(c.fd, how);
    }
    for (Connection &c : victims) {
        if (c.thread.joinable())
            c.thread.join();
        ::close(c.fd);
    }
}

void
RemoteKvServer::shutdown()
{
    stopConnections(SHUT_RDWR);
}

void
RemoteKvServer::drain()
{
    stopConnections(SHUT_RD);
    std::lock_guard<std::mutex> lock(storeMu);
    store->flush();
}

bool
RemoteKvServer::admitMutation(std::uint64_t sessionId,
                              std::uint64_t seq)
{
    std::uint64_t &highWater = sessionHighWater[sessionId];
    if (seq <= highWater) {
        if (obs::metricsEnabled())
            nodeReplayDiscardsCounter().inc();
        return false;
    }
    highWater = seq;
    return true;
}

void
RemoteKvServer::shapeDelay(std::uint64_t wireBytes) const
{
    std::int64_t ns = shaping.latencyNs;
    if (shaping.bytesPerSec > 0) {
        ns += static_cast<std::int64_t>(
            static_cast<double>(wireBytes) * 1e9
            / static_cast<double>(shaping.bytesPerSec));
    }
    if (ns > 0)
        std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
}

void
RemoteKvServer::serveConnection(int fd)
{
    const std::uint64_t recBytes = store->recordBytes();
    std::vector<std::uint8_t> req;
    std::vector<std::uint8_t> resp;
    std::vector<std::uint64_t> slots;

    if (obs::metricsEnabled()) {
        nodeConnectionsCounter().inc();
        nodeActiveConnectionsGauge().inc();
    }

    /** Replay session bound to this connection by its Hello (0 until
     *  then; a data RPC before the Hello drops the connection). */
    std::uint64_t connSession = 0;

    // Wire-supplied indices are untrusted input: a bad one must drop
    // the connection, not reach the inner store (whose range asserts
    // are for *library* bugs and abort the whole node).
    auto slotsValid = [this](const std::vector<std::uint64_t> &v) {
        for (const std::uint64_t slot : v)
            if (slot >= store->slots())
                return false;
        return true;
    };

    while (recvFrame(fd, req, 0)) {
        if (req.size() < 1 + sizeof(std::uint64_t))
            break; // malformed header; drop the connection
        const std::uint8_t op = req[0];
        const std::uint64_t seq = readU64(req.data() + 1);
        const std::uint8_t *payload = req.data() + 9;
        const std::size_t payloadLen = req.size() - 9;

        resp.clear();
        resp.push_back(static_cast<std::uint8_t>(op | kResponseBit));
        appendU64(resp, seq);
        bool ok = true;

        if (obs::metricsEnabled())
            nodeRpcsCounter().inc();

        if (static_cast<RemoteOp>(op) != RemoteOp::Hello
            && connSession == 0)
            break; // every connection opens with a Hello

        switch (static_cast<RemoteOp>(op)) {
          case RemoteOp::Hello: {
            // (slots, recordBytes, sessionId != 0); anything else is a
            // corrupt stream.
            if (payloadLen != 24 || readU64(payload + 16) == 0) {
                ok = false;
                break;
            }
            connSession = readU64(payload + 16);
            appendU64(resp, store->slots());
            appendU64(resp, store->recordBytes());
            appendU64(resp, store->metaCapacity());
            resp.push_back(store->persistent() ? 1 : 0);
            resp.push_back(store->openedExisting() ? 1 : 0);
            break;
          }
          case RemoteOp::ReadSlots: {
            if (payloadLen < sizeof(std::uint64_t)) {
                ok = false;
                break;
            }
            const std::uint64_t n = readU64(payload);
            // Bound the *response* frame too: n records must fit the
            // u32 length prefix (and the client's frame cap), or the
            // reply would truncate and desync the stream.
            if (n > kMaxSlotsPerRpc
                || payloadLen != (1 + n) * sizeof(std::uint64_t)
                || 9 + n * recBytes > kMaxFrameBytes) {
                ok = false;
                break;
            }
            slots.resize(n);
            std::memcpy(slots.data(), payload + 8, n * 8);
            if (!slotsValid(slots)) {
                ok = false;
                break;
            }
            const std::size_t at = resp.size();
            resp.resize(at + n * recBytes);
            std::lock_guard<std::mutex> lock(storeMu);
            store->readSlots(slots.data(), n, resp.data() + at);
            break;
          }
          case RemoteOp::WriteSlots: {
            if (payloadLen < sizeof(std::uint64_t)) {
                ok = false;
                break;
            }
            const std::uint64_t n = readU64(payload);
            if (n > kMaxSlotsPerRpc
                || payloadLen
                       != (1 + n) * sizeof(std::uint64_t)
                              + n * recBytes) {
                ok = false;
                break;
            }
            slots.resize(n);
            std::memcpy(slots.data(), payload + 8, n * 8);
            if (!slotsValid(slots)) {
                ok = false;
                break;
            }
            std::lock_guard<std::mutex> lock(storeMu);
            if (!admitMutation(connSession, seq))
                break; // replayed duplicate: ack without re-applying
            store->writeSlots(slots.data(), n,
                              payload + 8 + n * 8);
            break;
          }
          case RemoteOp::Flush: {
            std::lock_guard<std::mutex> lock(storeMu);
            if (!admitMutation(connSession, seq))
                break;
            store->flush();
            break;
          }
          case RemoteOp::ReadMeta: {
            if (payloadLen != sizeof(std::uint64_t)) {
                ok = false;
                break;
            }
            const std::uint64_t want = readU64(payload);
            if (want > kMaxFrameBytes) {
                ok = false;
                break;
            }
            std::vector<std::uint8_t> meta(want, 0);
            std::uint64_t got = 0;
            {
                std::lock_guard<std::mutex> lock(storeMu);
                got = store->readMeta(meta.data(), want);
            }
            appendU64(resp, got);
            resp.insert(resp.end(), meta.begin(), meta.begin() + got);
            break;
          }
          case RemoteOp::WriteMeta: {
            if (payloadLen < sizeof(std::uint64_t)) {
                ok = false;
                break;
            }
            const std::uint64_t len = readU64(payload);
            if (payloadLen != sizeof(std::uint64_t) + len) {
                ok = false;
                break;
            }
            std::lock_guard<std::mutex> lock(storeMu);
            if (!admitMutation(connSession, seq))
                break;
            store->writeMeta(payload + 8, len);
            break;
          }
          case RemoteOp::Stat: {
            std::lock_guard<std::mutex> lock(storeMu);
            appendU64(resp, store->residentBytes());
            break;
          }
          default:
            ok = false;
            break;
        }

        if (!ok)
            break; // protocol violation: drop the connection

        // Network shaper: the handshake is control-plane and exempt;
        // every data-plane RPC pays latency + wire time for both
        // directions' bytes before its reply leaves.
        if (static_cast<RemoteOp>(op) != RemoteOp::Hello)
            shapeDelay(req.size() + resp.size());

        if (!sendFrame(fd, resp))
            break;
    }
    // Signal EOF to the peer so a client blocked in a response wait
    // fails fast instead of hanging (protocol violations drop the
    // connection without a reply). Only shutdown here — close() is
    // owned by RemoteKvServer::shutdown(), since a second shutdown
    // is harmless but a double-close races with fd reuse.
    ::shutdown(fd, SHUT_RDWR);
    if (obs::metricsEnabled())
        nodeActiveConnectionsGauge().dec();
}

// ==================================================== RemoteKvBackend

namespace {

/** Seed material for jitter/session ids (timing + identity only —
 *  never data, so determinism of payloads is untouched). */
std::uint64_t
entropy64()
{
    std::random_device rd;
    return (static_cast<std::uint64_t>(rd()) << 32) | rd();
}

} // namespace

RemoteKvBackend::RemoteKvBackend(const StorageConfig &cfg,
                                 std::uint64_t slots,
                                 std::uint64_t recordBytes,
                                 std::uint64_t metaBytes)
    : SlotBackend(slots, recordBytes, "remote"),
      cfg(cfg.remote),
      jitterRng(entropy64())
{
    LAORAM_ASSERT(this->cfg.windowDepth >= 1,
                  "remote-KV window needs at least one RPC in flight");
    if (!this->cfg.endpoint.empty()) {
        // Endpoint mode: dial an out-of-process laoram_node. The node
        // owns its storage and meta sizing; the handshake checks the
        // geometry agrees.
        std::string error;
        if (!net::parseEndpoint(this->cfg.endpoint, &remoteEp, &error))
            LAORAM_FATAL("bad remote-KV endpoint: ", error);
    } else {
        // Self-hosted mode: compose the node's inner store from the
        // same StorageConfig — a configured path means a persistent
        // (mmap) node, otherwise the node serves from its own DRAM.
        StorageConfig inner = cfg;
        inner.kind = cfg.path.empty() ? BackendKind::Dram
                                      : BackendKind::MmapFile;
        server = std::make_unique<RemoteKvServer>(
            makeBackend(inner, slots, recordBytes, metaBytes),
            cfg.remote);
    }
    while (sessionId == 0)
        sessionId = jitterRng();
    fd = dialWithRetry("initial connect");
}

RemoteKvBackend::~RemoteKvBackend()
{
    // No drain: any un-acked write dies with the connection, so a
    // caller that needs its writes durable flush()es first.
    if (fd >= 0)
        ::close(fd);
    // The self-hosted server (if any) is destroyed after the client
    // fd closes, so its service thread sees EOF and exits cleanly.
}

bool
RemoteKvBackend::rawHello(int helloFd)
{
    std::vector<std::uint8_t> frame;
    frame.push_back(static_cast<std::uint8_t>(RemoteOp::Hello));
    appendU64(frame, 0); // seq 0: outside the data-RPC stream
    appendU64(frame, nSlots);
    appendU64(frame, recBytes);
    appendU64(frame, sessionId);
    if (!sendFrame(helloFd, frame))
        return false;
    if (!recvFrame(helloFd, frame, cfg.responseTimeoutMs))
        return false;
    constexpr std::size_t kHelloBody = 3 * sizeof(std::uint64_t) + 2;
    if (frame.size() != 9 + kHelloBody
        || frame[0]
               != (static_cast<std::uint8_t>(RemoteOp::Hello)
                   | kResponseBit)
        || readU64(frame.data() + 1) != 0)
        return false;
    const std::uint8_t *body = frame.data() + 9;
    const std::uint64_t srvSlots = readU64(body);
    const std::uint64_t srvRec = readU64(body + 8);
    if (srvSlots != nSlots || srvRec != recBytes) {
        throw ShapeMismatch(
            "remote-KV handshake: server stores " +
            std::to_string(srvSlots) + " slots of " +
            std::to_string(srvRec) + " B, client expects " +
            std::to_string(nSlots) + " slots of " +
            std::to_string(recBytes) + " B");
    }
    serverMetaCap = readU64(body + 16);
    serverPersistent = body[24] != 0;
    serverReopened = body[25] != 0;
    return true;
}

void
RemoteKvBackend::connectionLost(const char *what) const
{
    LAORAM_FATAL("remote-KV connection lost during ", what,
                 " (server died or closed the socket); the tree is "
                 "unreachable, aborting the run");
}

int
RemoteKvBackend::dialWithRetry(const char *what)
{
    // Attempt 0 is immediate (the node is usually up); each further
    // attempt waits base * 2^(attempt-1) capped at backoffMaxMs, plus
    // up to 50% jitter so shard clients do not redial in lock-step.
    for (std::uint32_t attempt = 0; attempt <= cfg.maxRetries;
         ++attempt) {
        if (attempt > 0) {
            const int shift =
                attempt - 1 < 20 ? static_cast<int>(attempt - 1) : 20;
            std::int64_t waitMs = cfg.backoffBaseMs << shift;
            if (waitMs > cfg.backoffMaxMs || waitMs <= 0)
                waitMs = cfg.backoffMaxMs;
            if (waitMs > 1)
                waitMs += static_cast<std::int64_t>(
                    jitterRng() % static_cast<std::uint64_t>(
                        waitMs / 2 + 1));
            std::this_thread::sleep_for(
                std::chrono::milliseconds(waitMs));
        }
        const int nfd = server ? server->connectClient()
                               : net::dialEndpoint(remoteEp);
        if (nfd < 0)
            continue; // refused/unreachable: the node may be restarting
        try {
            if (rawHello(nfd))
                return nfd;
        } catch (...) {
            ::close(nfd); // geometry mismatch: the fd must not leak
            throw;
        }
        ::close(nfd); // half-open or hung node: try again
    }
    connectionLost(what);
}

void
RemoteKvBackend::recoverConnection(const char *what)
{
    const std::string peer =
        server ? std::string("the self-hosted node") : remoteEp.str();
    warn("remote-KV connection to ", peer, " lost during ",
         what, "; reconnecting and replaying ", pendingRpcs.size(),
         " un-acked request(s)");
    for (;;) {
        if (fd >= 0)
            ::close(fd);
        fd = -1;
        try {
            fd = dialWithRetry(what); // fatal when retries run out
        } catch (const std::runtime_error &e) {
            // Mid-run geometry change: the node restarted over a
            // different tree — replaying into it would corrupt.
            LAORAM_FATAL("remote-KV reconnect to ", peer,
                         " refused: ", e.what());
        }
        // Responses are strictly ordered, so the un-acked RPCs are
        // exactly the contiguous tail of the stream: re-send them in
        // order. The node's session high-water mark discards (but
        // acks) any mutation it already applied.
        bool replayed = true;
        for (const PendingRpc &pending : pendingRpcs) {
            if (!sendFrame(fd, pending.frame)) {
                replayed = false; // died again mid-replay: redial
                break;
            }
        }
        if (replayed)
            break;
    }
    if (obs::metricsEnabled())
        nodeClientReconnectsCounter().inc();
}

std::vector<std::uint8_t> &
RemoteKvBackend::beginRequest(RemoteOp op, std::size_t payloadBytes)
{
    PendingRpc &pending = pendingRpcs.emplace_back();
    pending.seq = nextSeq++;
    pending.op = static_cast<std::uint8_t>(op);
    pending.frame.reserve(1 + sizeof(pending.seq) + payloadBytes);
    pending.frame.push_back(pending.op);
    appendU64(pending.frame, pending.seq);
    return pending.frame;
}

void
RemoteKvBackend::dispatchRequest()
{
    PendingRpc &pending = pendingRpcs.back();
    if (obs::tracingEnabled())
        pending.dispatchNs = obs::traceNowNs();

    // The RPC is parked *before* the send, so a send failure recovers
    // uniformly: the reconnect replay re-sends every pending frame,
    // including this one.
    if (!sendFrame(fd, pending.frame))
        recoverConnection("request send");
}

std::vector<std::uint8_t>
RemoteKvBackend::harvestOne()
{
    LAORAM_ASSERT(!pendingRpcs.empty(),
                  "harvest with no RPC outstanding");
    std::vector<std::uint8_t> frame;
    for (;;) {
        // Any failure here — EOF, reset, a hung server tripping the
        // response deadline, a malformed or mis-sequenced frame from
        // a corrupted stream — means this connection is done; the
        // recovery replays the window and the loop keeps harvesting
        // the replayed stream.
        if (!recvFrame(fd, frame, cfg.responseTimeoutMs)) {
            recoverConnection("response wait");
            continue;
        }
        if (frame.size() < 1 + sizeof(std::uint64_t)) {
            recoverConnection("response decode");
            continue;
        }
        const std::uint8_t op = frame[0];
        const std::uint64_t seq = readU64(frame.data() + 1);
        // In-order stream: every response must match the oldest
        // request.
        if (op != (pendingRpcs.front().op | kResponseBit)
            || seq != pendingRpcs.front().seq) {
            recoverConnection("response sequencing");
            continue;
        }
        break;
    }

    const PendingRpc &pending = pendingRpcs.front();
    if (pending.dispatchNs >= 0 && obs::tracingEnabled()) {
        // Full round trip, dispatch to harvest — for an async write
        // this includes the time it sat pipelined in the window.
        obs::traceRecord(rpcSpanName(pending.op), pending.dispatchNs,
                         obs::traceNowNs() - pending.dispatchNs,
                         pending.seq);
    }
    pendingRpcs.pop_front();
    frame.erase(frame.begin(), frame.begin() + 9);
    return frame;
}

std::vector<std::uint8_t>
RemoteKvBackend::roundTrip()
{
    // The request just begun is the newest RPC, queued behind every
    // in-flight write on the ordered stream: harvesting until the log
    // is empty acks those writes first and ends on its own response.
    dispatchRequest();
    std::vector<std::uint8_t> body;
    while (!pendingRpcs.empty())
        body = harvestOne();
    if (obs::metricsEnabled())
        inflightWritesGauge().set(0);
    return body;
}

void
RemoteKvBackend::doReadSlots(const std::uint64_t *slots, std::size_t n,
                             std::uint8_t *dst)
{
    std::vector<std::uint8_t> &frame = beginRequest(
        RemoteOp::ReadSlots, (1 + n) * sizeof(std::uint64_t));
    appendU64(frame, n);
    for (std::size_t i = 0; i < n; ++i)
        appendU64(frame, slots[i]);
    // The read pipelines behind any in-flight writes on the ordered
    // stream, so it observes all of them.
    const std::vector<std::uint8_t> body = roundTrip();
    if (body.size() != n * recBytes)
        connectionLost("read payload decode");
    std::memcpy(dst, body.data(), body.size());
}

void
RemoteKvBackend::doWriteSlots(const std::uint64_t *slots, std::size_t n,
                              const std::uint8_t *src)
{
    // Async write: one vectored RPC for the whole path, left in the
    // bounded window. Only a full window blocks — that wait is genuine
    // backpressure from the (shaped) link and lands in the caller's
    // timed section.
    while (pendingRpcs.size() >= cfg.windowDepth)
        harvestOne(); // a write ack: the body is empty

    // Serialized straight into the frame buffer: the path's records
    // are copied exactly once on their way to the socket.
    std::vector<std::uint8_t> &frame = beginRequest(
        RemoteOp::WriteSlots,
        (1 + n) * sizeof(std::uint64_t) + n * recBytes);
    appendU64(frame, n);
    for (std::size_t i = 0; i < n; ++i)
        appendU64(frame, slots[i]);
    frame.insert(frame.end(), src, src + n * recBytes);
    dispatchRequest();
    if (obs::metricsEnabled()) {
        inflightWritesGauge().set(
            static_cast<std::int64_t>(pendingRpcs.size()));
    }
}

void
RemoteKvBackend::doFlush()
{
    // Flush is a barrier: it orders behind every outstanding write on
    // the stream, so its round trip drains the whole window.
    beginRequest(RemoteOp::Flush);
    roundTrip();
}

std::uint64_t
RemoteKvBackend::residentBytes() const
{
    // Control-plane RPC (not an IoStats op): reports the *server*
    // node's resident bytes — the client side keeps nothing mapped,
    // which is the whole point of a remote tree.
    auto *self = const_cast<RemoteKvBackend *>(this);
    self->beginRequest(RemoteOp::Stat);
    const std::vector<std::uint8_t> body = self->roundTrip();
    if (body.size() != sizeof(std::uint64_t))
        connectionLost("stat decode");
    return readU64(body.data());
}

void
RemoteKvBackend::writeMeta(const std::uint8_t *src, std::uint64_t len)
{
    std::vector<std::uint8_t> &frame =
        beginRequest(RemoteOp::WriteMeta, sizeof(len) + len);
    appendU64(frame, len);
    frame.insert(frame.end(), src, src + len);
    roundTrip();
}

std::uint64_t
RemoteKvBackend::readMeta(std::uint8_t *dst, std::uint64_t len) const
{
    auto *self = const_cast<RemoteKvBackend *>(this);
    appendU64(self->beginRequest(RemoteOp::ReadMeta, sizeof(len)), len);
    const std::vector<std::uint8_t> body = self->roundTrip();
    if (body.size() < sizeof(std::uint64_t))
        connectionLost("meta decode");
    const std::uint64_t got = readU64(body.data());
    if (body.size() != sizeof(std::uint64_t) + got || got > len)
        connectionLost("meta decode");
    std::memcpy(dst, body.data() + 8, got);
    return got;
}

} // namespace laoram::storage
