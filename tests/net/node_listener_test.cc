/**
 * @file
 * In-process NodeListener tests: a RemoteKvServer behind a real
 * TCP/UDS listener serves many concurrent endpoint-mode clients (one
 * service thread per accepted connection, shared inner backend), an
 * ephemeral-port bind reports the dialable address, a stale UDS
 * socket file is reclaimed (the SIGKILL-restart path), and stop()
 * unblocks the accept loop so new dials are refused.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "../common/scratch_dir.hh"
#include "net/node_server.hh"
#include "storage/remote_backend.hh"
#include "storage/slot_backend.hh"

namespace laoram::net {
namespace {

using storage::BackendKind;
using storage::RemoteKvBackend;
using storage::RemoteKvServer;
using storage::StorageConfig;

constexpr std::uint64_t kSlots = 256;
constexpr std::uint64_t kRecBytes = 48;

std::unique_ptr<RemoteKvServer>
dramServer()
{
    return std::make_unique<RemoteKvServer>(
        storage::makeBackend(StorageConfig{}, kSlots, kRecBytes, 0),
        storage::RemoteKvConfig{});
}

Endpoint
loopback()
{
    Endpoint ep;
    EXPECT_TRUE(parseEndpoint("127.0.0.1:0", &ep));
    return ep;
}

StorageConfig
dialConfig(const std::string &endpoint)
{
    StorageConfig scfg;
    scfg.kind = BackendKind::Remote;
    scfg.remote.endpoint = endpoint;
    scfg.remote.maxRetries = 4;
    scfg.remote.backoffBaseMs = 2;
    scfg.remote.backoffMaxMs = 40;
    return scfg;
}

TEST(NodeListener, EphemeralBindReportsDialablePort)
{
    auto server = dramServer();
    NodeListener listener(*server, loopback());
    EXPECT_EQ(listener.endpoint().kind, Endpoint::Kind::Tcp);
    EXPECT_NE(listener.endpoint().port, 0);
}

TEST(NodeListener, ServesManyConcurrentClients)
{
    auto server = dramServer();
    NodeListener listener(*server, loopback());
    const std::string ep = listener.endpoint().str();

    // Each client owns a disjoint slot range; all dial, write, and
    // read back concurrently against the one shared inner backend.
    constexpr int kClients = 4;
    constexpr std::uint64_t kPerClient = 16;
    std::vector<std::thread> threads;
    // char, not bool: vector<bool> packs the flags into shared words,
    // so one thread's write would race with its neighbours'.
    std::vector<char> ok(kClients, 0);
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            RemoteKvBackend client(dialConfig(ep), kSlots, kRecBytes,
                                   0);
            std::vector<std::uint8_t> rec(kRecBytes);
            std::vector<std::uint8_t> out(kRecBytes);
            bool good = true;
            for (std::uint64_t i = 0; i < kPerClient; ++i) {
                const std::uint64_t slot = c * kPerClient + i;
                for (std::size_t b = 0; b < rec.size(); ++b)
                    rec[b] = static_cast<std::uint8_t>(slot * 3 + b);
                client.writeSlots(&slot, 1, rec.data());
                client.readSlots(&slot, 1, out.data());
                good = good && out == rec;
            }
            client.flush();
            ok[c] = good;
        });
    }
    for (auto &t : threads)
        t.join();
    for (int c = 0; c < kClients; ++c)
        EXPECT_TRUE(ok[c]) << "client " << c;
    EXPECT_EQ(server->inner().ioStats().slotsWritten,
              std::uint64_t{kClients} * kPerClient);
}

TEST(NodeListener, ReclaimsStaleUdsSocketFile)
{
    const test::ScratchDir scratch;
    const std::string sock = scratch.file("stale.sock");
    Endpoint ep;
    ASSERT_TRUE(parseEndpoint("unix:" + sock, &ep));

    // Simulate a SIGKILLed node: bind the path, then close the fd
    // without unlinking, leaving a stale socket file behind.
    std::string error;
    const int stale = listenEndpoint(ep, &error);
    ASSERT_GE(stale, 0) << error;
    ::close(stale);

    // A restarted node must reclaim the path, and serve.
    auto server = dramServer();
    NodeListener listener(*server, ep);
    RemoteKvBackend client(dialConfig("unix:" + sock), kSlots,
                           kRecBytes, 0);
    std::vector<std::uint8_t> rec(kRecBytes, 0x5A);
    const std::uint64_t slot = 0;
    client.writeSlots(&slot, 1, rec.data());
    client.flush();
    EXPECT_EQ(server->inner().ioStats().slotsWritten, 1u);

    listener.stop();
    // A clean stop removes the socket file.
    EXPECT_NE(::access(sock.c_str(), F_OK), 0);
}

TEST(NodeListener, StopRefusesNewDialsAndIsIdempotent)
{
    auto server = dramServer();
    NodeListener listener(*server, loopback());
    const Endpoint ep = listener.endpoint();

    listener.stop();
    listener.stop(); // second stop is a no-op, not a crash

    std::string error;
    EXPECT_LT(dialEndpoint(ep, &error), 0);
}

} // namespace
} // namespace laoram::net
