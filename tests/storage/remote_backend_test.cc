/**
 * @file
 * Remote-KV backend tests beyond the shared conformance suite: the
 * async write window, shaper determinism (same seed + latency config
 * => identical IoStats counts), handshake and wire-input validation,
 * persistent (mmap-inner) node reopen over RPC, engine-level
 * equivalence against DRAM, and the kill-server-mid-trace error path
 * (clean fatal with maxRetries = 0, no hang).
 *
 * Tests that control the node's lifetime serve it through a
 * NodeListener on an ephemeral loopback TCP port (no socket file is
 * left behind, even by the death test's child) and dial it like any
 * out-of-process laoram_node.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "../common/scratch_dir.hh"
#include "net/node_server.hh"
#include "oram/path_oram.hh"
#include "oram/server_storage.hh"
#include "storage/dram_backend.hh"
#include "storage/remote_backend.hh"
#include "util/rng.hh"

namespace laoram::storage {
namespace {

constexpr std::uint64_t kSlots = 256;
constexpr std::uint64_t kRecBytes = 48;

/** A DRAM node served on an ephemeral loopback TCP port. */
struct ServedNode
{
    explicit ServedNode(const RemoteKvConfig &shaping = {})
        : server(std::make_unique<RemoteKvServer>(
              std::make_unique<DramBackend>(kSlots, kRecBytes), shaping)),
          listener(*server, loopback())
    {
    }

    static net::Endpoint
    loopback()
    {
        net::Endpoint ep;
        EXPECT_TRUE(net::parseEndpoint("127.0.0.1:0", &ep));
        return ep;
    }

    /** Client config dialling this node with @p link's client knobs. */
    StorageConfig
    dialConfig(const RemoteKvConfig &link = {}) const
    {
        StorageConfig scfg;
        scfg.kind = BackendKind::Remote;
        scfg.remote = link;
        scfg.remote.endpoint = listener.endpoint().str();
        return scfg;
    }

    std::unique_ptr<RemoteKvServer> server;
    net::NodeListener listener;
};

/** Open file descriptors of this process. */
std::size_t
openFdCount()
{
    return static_cast<std::size_t>(std::distance(
        std::filesystem::directory_iterator("/proc/self/fd"),
        std::filesystem::directory_iterator{}));
}

std::vector<std::uint8_t>
pattern(std::uint8_t fill)
{
    std::vector<std::uint8_t> rec(kRecBytes);
    for (std::size_t i = 0; i < rec.size(); ++i)
        rec[i] = static_cast<std::uint8_t>(fill + i);
    return rec;
}

TEST(RemoteBackend, RoundTripsThroughAttachedServer)
{
    ServedNode node;
    RemoteKvBackend client(node.dialConfig(), kSlots, kRecBytes, 0);

    const auto recA = pattern(0x10);
    const auto recB = pattern(0x60);
    const std::uint64_t slots[2] = {3, 200};
    std::vector<std::uint8_t> out(2 * kRecBytes, 0);
    std::vector<std::uint8_t> in(recA);
    in.insert(in.end(), recB.begin(), recB.end());

    client.writeSlots(slots, 2, in.data());
    client.readSlots(slots, 2, out.data());
    EXPECT_EQ(std::memcmp(out.data(), recA.data(), kRecBytes), 0);
    EXPECT_EQ(std::memcmp(out.data() + kRecBytes, recB.data(),
                          kRecBytes),
              0);

    // The write really landed on the server's inner store.
    client.flush();
    EXPECT_EQ(node.server->inner().ioStats().slotsWritten, 2u);
}

TEST(RemoteBackend, AsyncWriteWindowStaysBoundedAndFlushDrains)
{
    RemoteKvConfig cfg;
    cfg.windowDepth = 3;
    // Slow the node down so writes genuinely pile up in flight.
    cfg.latencyNs = 2'000'000; // 2 ms per RPC
    ServedNode node(cfg);
    RemoteKvBackend client(node.dialConfig(cfg), kSlots, kRecBytes, 0);

    const auto rec = pattern(0x42);
    for (std::uint64_t slot = 0; slot < 10; ++slot) {
        client.writeSlots(&slot, 1, rec.data());
        EXPECT_LE(client.inFlightWrites(), cfg.windowDepth);
    }
    EXPECT_GE(client.inFlightWrites(), 1u);

    client.flush();
    EXPECT_EQ(client.inFlightWrites(), 0u);

    // Every write is visible after the flush barrier.
    std::vector<std::uint8_t> out(kRecBytes);
    for (std::uint64_t slot = 0; slot < 10; ++slot) {
        client.readSlots(&slot, 1, out.data());
        EXPECT_EQ(out, rec) << "slot " << slot;
    }
}

/**
 * Only async writes stay un-acked between calls: every synchronous
 * call queues behind them on the ordered stream and returns with the
 * window empty, and the writes it acked are visible afterwards.
 */
TEST(RemoteBackend, SynchronousCallsDrainTheWriteWindow)
{
    const test::ScratchDir scratch;
    StorageConfig scfg;
    scfg.kind = BackendKind::Remote;
    scfg.path = scratch.file("drain.tree"); // mmap-inner: meta persists
    scfg.remote.windowDepth = 8;
    constexpr std::uint64_t kMetaBytes = 16;
    RemoteKvBackend client(scfg, kSlots, kRecBytes, kMetaBytes);

    const std::vector<std::uint8_t> meta(kMetaBytes, 0xA5);
    std::vector<std::uint8_t> out(kRecBytes);
    const std::vector<std::pair<const char *, std::function<void()>>>
        calls = {
            {"readSlots",
             [&] {
                 const std::uint64_t slot = kSlots - 1;
                 client.readSlots(&slot, 1, out.data());
             }},
            {"residentBytes", [&] { (void)client.residentBytes(); }},
            {"writeMeta",
             [&] { client.writeMeta(meta.data(), meta.size()); }},
            {"readMeta",
             [&] {
                 std::vector<std::uint8_t> got(kMetaBytes);
                 EXPECT_EQ(client.readMeta(got.data(), got.size()),
                           kMetaBytes);
                 EXPECT_EQ(got, meta);
             }},
            {"flush", [&] { client.flush(); }},
        };
    std::uint64_t slot = 0;
    for (const auto &[name, call] : calls) {
        SCOPED_TRACE(name);
        std::vector<std::uint8_t> last;
        for (int i = 0; i < 3; ++i, ++slot) {
            last = pattern(static_cast<std::uint8_t>(slot * 16));
            client.writeSlots(&slot, 1, last.data());
        }
        EXPECT_EQ(client.inFlightWrites(), 3u);

        call();
        EXPECT_EQ(client.inFlightWrites(), 0u);

        const std::uint64_t lastSlot = slot - 1;
        client.readSlots(&lastSlot, 1, out.data());
        EXPECT_EQ(out, last);
    }
}

TEST(RemoteBackend, ReadObservesAllPendingWrites)
{
    RemoteKvConfig cfg;
    cfg.windowDepth = 8;
    cfg.latencyNs = 1'000'000;
    ServedNode node(cfg);
    RemoteKvBackend client(node.dialConfig(cfg), kSlots, kRecBytes, 0);

    // Several async writes to the same slot, then an immediate read:
    // the ordered stream must deliver the *last* write's bytes even
    // though none of the writes was awaited explicitly.
    const std::uint64_t slot = 7;
    for (std::uint8_t round = 0; round < 5; ++round) {
        const auto rec = pattern(round);
        client.writeSlots(&slot, 1, rec.data());
    }
    std::vector<std::uint8_t> out(kRecBytes);
    client.readSlots(&slot, 1, out.data());
    EXPECT_EQ(out, pattern(4));
}

TEST(RemoteBackend, ServerDropsConnectionOnOutOfRangeSlot)
{
    ServedNode node;

    auto putU64 = [](std::vector<std::uint8_t> &body, std::uint64_t v) {
        const std::size_t at = body.size();
        body.resize(at + sizeof(v));
        std::memcpy(body.data() + at, &v, sizeof(v));
    };
    auto sendFrame = [](int fd, const std::vector<std::uint8_t> &body) {
        const std::uint32_t len = static_cast<std::uint32_t>(body.size());
        ASSERT_EQ(::send(fd, &len, sizeof(len), MSG_NOSIGNAL),
                  static_cast<ssize_t>(sizeof(len)));
        ASSERT_EQ(::send(fd, body.data(), body.size(), MSG_NOSIGNAL),
                  static_cast<ssize_t>(body.size()));
    };
    auto hello = [&](std::size_t payloadBytes, std::uint64_t session) {
        std::vector<std::uint8_t> body;
        body.push_back(1); // RemoteOp::Hello
        putU64(body, 0);   // seq
        putU64(body, kSlots);
        putU64(body, kRecBytes);
        if (payloadBytes == 24)
            putU64(body, session);
        return body;
    };
    auto readSlot = [&](std::uint64_t slot) {
        std::vector<std::uint8_t> body;
        body.push_back(2); // RemoteOp::ReadSlots
        putU64(body, 1);   // seq
        putU64(body, 1);   // n = 1 slot
        putU64(body, slot);
        return body;
    };
    auto dialRaw = [&node] {
        const int fd = net::dialEndpoint(node.listener.endpoint());
        EXPECT_GE(fd, 0);
        return fd;
    };

    // A legacy 16-byte Hello (no replay session), a 24-byte Hello
    // carrying session 0, and a data RPC before any Hello: wire input
    // is untrusted, so the node must drop the connection unanswered.
    for (const auto &bad : {hello(16, 0), hello(24, 0), readSlot(0)}) {
        const int fd = dialRaw();
        sendFrame(fd, bad);
        std::uint8_t byte = 0;
        EXPECT_EQ(::recv(fd, &byte, 1, 0), 0); // EOF, no response
        ::close(fd);
    }

    // A proper Hello, then a hand-crafted ReadSlots frame asking for
    // slot kSlots (one past the end): the node must drop the
    // connection — not crash, not serve out-of-bounds bytes.
    const int fd = dialRaw();
    sendFrame(fd, hello(24, 0x5e55));
    std::uint32_t len = 0;
    ASSERT_EQ(::recv(fd, &len, sizeof(len), MSG_WAITALL),
              static_cast<ssize_t>(sizeof(len)));
    std::vector<std::uint8_t> ack(len);
    ASSERT_EQ(::recv(fd, ack.data(), len, MSG_WAITALL),
              static_cast<ssize_t>(len));
    sendFrame(fd, readSlot(kSlots)); // one past the end

    // No response frame: the next read observes EOF.
    std::uint8_t byte = 0;
    EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
    ::close(fd);

    // The node survives and still serves well-behaved clients.
    RemoteKvBackend ok(node.dialConfig(), kSlots, kRecBytes, 0);
    const auto rec = pattern(0x05);
    const std::uint64_t slot = 0;
    ok.writeSlots(&slot, 1, rec.data());
    ok.flush();
}

TEST(RemoteBackend, HandshakeRejectsGeometryMismatch)
{
    const std::pair<std::uint64_t, std::uint64_t> mismatches[] = {
        {kSlots + 1, kRecBytes}, {kSlots, kRecBytes + 8}};
    for (const auto &[slots, recBytes] : mismatches) {
        // The node is torn down inside the scope, closing every fd it
        // opened: a surplus entry afterwards is a socket leaked by
        // the rejected client.
        const std::size_t before = openFdCount();
        {
            ServedNode node;
            EXPECT_THROW(RemoteKvBackend(node.dialConfig(), slots,
                                         recBytes, 0),
                         std::runtime_error);
            // The node survives rejected clients and still serves
            // good ones.
            RemoteKvBackend ok(node.dialConfig(), kSlots, kRecBytes, 0);
            const auto rec = pattern(0x01);
            const std::uint64_t slot = 0;
            ok.writeSlots(&slot, 1, rec.data());
            ok.flush();
        }
        EXPECT_EQ(openFdCount(), before)
            << "slots " << slots << ", record " << recBytes << " B";
    }
}

/**
 * Same seed + same shaper config => identical IoStats *counts*; and a
 * different shaper setting changes only measured nanoseconds, never a
 * count. This is what makes shaped-remote bench runs comparable
 * across hosts.
 */
TEST(RemoteBackend, ShaperChangesOnlyMeasuredTimeNeverCounts)
{
    auto countsOf = [](const RemoteKvConfig &shaping) {
        oram::EngineConfig cfg;
        cfg.numBlocks = 128;
        cfg.blockBytes = 64;
        cfg.payloadBytes = 16;
        cfg.encrypt = true;
        cfg.seed = 11;
        cfg.storage.kind = BackendKind::Remote;
        cfg.storage.remote = shaping;
        oram::PathOram oram(cfg);
        Rng rng(23);
        std::vector<std::uint8_t> buf;
        for (int i = 0; i < 300; ++i) {
            const oram::BlockId id = rng.nextBounded(128);
            if (rng.nextBool(0.5)) {
                std::vector<std::uint8_t> data(
                    16, static_cast<std::uint8_t>(i));
                oram.writeBlock(id, data);
            } else {
                oram.readBlock(id, buf);
            }
        }
        return oram.storageForAudit().ioStats();
    };

    RemoteKvConfig unshaped;
    RemoteKvConfig shaped;
    shaped.latencyNs = 30'000;
    shaped.bytesPerSec = 200'000'000;
    shaped.windowDepth = 2;

    const IoStats a = countsOf(unshaped);
    const IoStats b = countsOf(unshaped);
    const IoStats c = countsOf(shaped);

    // Determinism: byte-for-byte identical ledger counts per config.
    EXPECT_EQ(a.readOps, b.readOps);
    EXPECT_EQ(a.writeOps, b.writeOps);
    EXPECT_EQ(a.slotsRead, b.slotsRead);
    EXPECT_EQ(a.slotsWritten, b.slotsWritten);
    EXPECT_EQ(a.bytesRead, b.bytesRead);
    EXPECT_EQ(a.bytesWritten, b.bytesWritten);
    EXPECT_EQ(a.flushes, b.flushes);

    // Shaping invariance: counts match the unshaped run exactly.
    EXPECT_EQ(a.readOps, c.readOps);
    EXPECT_EQ(a.writeOps, c.writeOps);
    EXPECT_EQ(a.slotsRead, c.slotsRead);
    EXPECT_EQ(a.slotsWritten, c.slotsWritten);
    EXPECT_EQ(a.bytesRead, c.bytesRead);
    EXPECT_EQ(a.bytesWritten, c.bytesWritten);
    EXPECT_EQ(a.flushes, c.flushes);

    // Every synchronous read waited at least the shaped latency.
    EXPECT_GE(c.readNs,
              static_cast<std::int64_t>(c.readOps) * shaped.latencyNs);
}

TEST(RemoteBackend, PersistentNodeReopensByteIdentically)
{
    const test::ScratchDir scratch;
    const std::string path = scratch.file("remote_reopen.tree");

    StorageConfig scfg;
    scfg.kind = BackendKind::Remote;
    scfg.path = path; // mmap-inner node: the tree survives the server
    constexpr std::uint64_t kPayload = 24;
    constexpr std::uint64_t kSeed = 5;
    oram::TreeGeometry geom(64, 64, oram::BucketProfile::uniform(4), 0);

    Rng rng(9);
    std::vector<oram::StoredBlock> expect(geom.totalSlots());
    {
        oram::ServerStorage s(geom, kPayload, /*encrypt=*/true, kSeed,
                              scfg);
        for (std::uint64_t slot = 0; slot < s.slots(); ++slot) {
            std::vector<std::uint8_t> payload(kPayload);
            for (auto &b : payload)
                b = static_cast<std::uint8_t>(rng.nextBounded(256));
            s.writeSlot(slot, rng.nextBounded(1 << 20),
                        rng.nextBounded(64), payload.data(),
                        payload.size());
        }
        for (std::uint64_t slot = 0; slot < s.slots(); ++slot)
            s.readSlot(slot, expect[slot]);
        s.flush();
    } // epochs persisted over WriteMeta, node torn down

    scfg.keepExisting = true;
    oram::ServerStorage s(geom, kPayload, true, kSeed, scfg);
    EXPECT_TRUE(s.reopened());
    oram::StoredBlock b;
    for (std::uint64_t slot = 0; slot < s.slots(); ++slot) {
        s.readSlot(slot, b);
        EXPECT_EQ(b.id, expect[slot].id) << "slot " << slot;
        EXPECT_EQ(b.leaf, expect[slot].leaf) << "slot " << slot;
        EXPECT_EQ(b.payload, expect[slot].payload) << "slot " << slot;
    }
}

/**
 * Backend choice must be invisible to the ORAM: the same engine over
 * DRAM and over the RPC link produces identical payloads AND an
 * identical physical access trace.
 */
TEST(RemoteBackend, PathOramIdenticalToDramBackend)
{
    auto run = [](const StorageConfig &scfg) {
        oram::EngineConfig cfg;
        cfg.numBlocks = 128;
        cfg.blockBytes = 64;
        cfg.payloadBytes = 32;
        cfg.encrypt = true;
        cfg.seed = 2026;
        cfg.storage = scfg;
        oram::PathOram oram(cfg);

        std::vector<std::pair<std::uint64_t, bool>> trace;
        oram.storageForTest().setAccessSink(
            [&](std::uint64_t slot, bool write) {
                trace.emplace_back(slot, write);
            });

        Rng rng(3);
        std::vector<std::uint8_t> payloads;
        for (int i = 0; i < 300; ++i) {
            const oram::BlockId id = rng.nextBounded(128);
            if (rng.nextBounded(2) == 0) {
                std::vector<std::uint8_t> data(
                    32, static_cast<std::uint8_t>(i));
                oram.writeBlock(id, data);
            } else {
                std::vector<std::uint8_t> out;
                oram.readBlock(id, out);
                payloads.insert(payloads.end(), out.begin(),
                                out.end());
            }
        }
        return std::make_pair(std::move(trace), std::move(payloads));
    };

    StorageConfig dram;
    StorageConfig remote;
    remote.kind = BackendKind::Remote;
    remote.remote.latencyNs = 1000;

    const auto [dramTrace, dramPayloads] = run(dram);
    const auto [remoteTrace, remotePayloads] = run(remote);
    EXPECT_EQ(dramTrace, remoteTrace);
    EXPECT_EQ(dramPayloads, remotePayloads);
}

/**
 * A server that dies mid-trace must end the run with a clean fatal
 * (exit 1 + a pointed message), never a hang or silent corruption.
 * With maxRetries = 0 the one redial reaches the still-listening but
 * shut-down node, whose Hello answers EOF, so the client fatals at
 * once. Threadsafe death-test style: the statement re-executes in a
 * fresh process, so the server threads never mix with the fork.
 */
TEST(RemoteServerLoss, KillServerMidTraceFailsFastNotHangs)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            ServedNode node;
            RemoteKvConfig failFast;
            failFast.maxRetries = 0;
            RemoteKvBackend client(node.dialConfig(failFast), kSlots,
                                   kRecBytes, 0);
            const auto rec = pattern(0x33);
            const std::uint64_t slot = 1;
            client.writeSlots(&slot, 1, rec.data());
            client.flush(); // healthy so far

            node.server->shutdown(); // the node dies mid-trace

            std::vector<std::uint8_t> out(kRecBytes);
            client.readSlots(&slot, 1, out.data()); // must fatal
        },
        ::testing::ExitedWithCode(1), "remote-KV connection lost");
}

} // namespace
} // namespace laoram::storage
