/**
 * @file
 * Out-of-process node differential test: a pipelined Laoram engine
 * drives a REAL laoram_node binary (fork/exec, UDS listener,
 * mmap-backed tree), the node is SIGKILLed at a random window
 * boundary mid-trace and restarted on the same path, and the run
 * must finish byte-identically to an uninterrupted DRAM reference —
 * the client reconnects with backoff while the node comes back,
 * replays its un-acked tail, and acked writes survive the kill in
 * the page cache of the MAP_SHARED tree file.
 *
 * Plus the clean half of the lifecycle: SIGTERM drains and exits 0.
 *
 * fork/exec lives here and nowhere else in the test tree: keep this
 * suite OUT of sanitizer gating regexes that run forked children
 * (TSan in particular), matching the repo convention for
 * process-spawning tests.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "../common/scratch_dir.hh"
#include "../integration/engine_snapshot.hh"
#include "core/pipeline.hh"
#include "net/endpoint.hh"
#include "storage/slot_backend.hh"
#include "util/rng.hh"

namespace laoram::net {
namespace {

constexpr std::uint64_t kWindow = 24;
constexpr std::uint64_t kWindows = 6;

/** The laoram_node binary sits next to this test binary. */
std::string
nodeBinaryPath()
{
    char self[4096];
    const ssize_t len =
        ::readlink("/proc/self/exe", self, sizeof(self) - 1);
    EXPECT_GT(len, 0);
    self[len] = '\0';
    std::string dir(self);
    dir.resize(dir.find_last_of('/'));
    return dir + "/laoram_node";
}

/**
 * fork/exec a laoram_node; owns the pid for kill/reap. A node never
 * outlives its test: the child asks for SIGKILL when the forking
 * thread dies (PR_SET_PDEATHSIG, which also covers a test process
 * that aborts without unwinding; every start() runs on the test's
 * main thread), and the destructor SIGKILLs and reaps a node still
 * running when a failed ASSERT unwinds the test.
 */
class NodeProcess
{
  public:
    ~NodeProcess()
    {
        if (pid != -1) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, nullptr, 0);
        }
    }

    void
    start(const std::vector<std::string> &args)
    {
        ASSERT_EQ(pid, -1);
        const std::string bin = nodeBinaryPath();
        std::vector<const char *> argv;
        argv.push_back(bin.c_str());
        for (const auto &a : args)
            argv.push_back(a.c_str());
        argv.push_back(nullptr);
        const pid_t parent = ::getpid();
        pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            // A parent that died before prctl took effect has already
            // reparented us, so the death signal would never come.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            if (::getppid() != parent)
                ::_exit(127);
            ::execv(bin.c_str(),
                    const_cast<char *const *>(argv.data()));
            ::_exit(127); // exec failed
        }
    }

    void
    kill9()
    {
        ASSERT_NE(pid, -1);
        ASSERT_EQ(::kill(pid, SIGKILL), 0);
        ASSERT_EQ(::waitpid(pid, nullptr, 0), pid);
        pid = -1;
    }

    /** SIGTERM + reap; returns the node's exit code (-1 on signal). */
    int
    terminate()
    {
        if (pid == -1)
            return -1;
        ::kill(pid, SIGTERM);
        int status = 0;
        ::waitpid(pid, &status, 0);
        pid = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }

    bool running() const { return pid != -1; }

  private:
    pid_t pid = -1;
};

/** Block until the node's listener answers dials (it starts async). */
void
waitDialable(const std::string &spec)
{
    Endpoint ep;
    ASSERT_TRUE(parseEndpoint(spec, &ep));
    const auto deadline = std::chrono::steady_clock::now()
                          + std::chrono::seconds(20);
    for (;;) {
        const int fd = dialEndpoint(ep);
        if (fd >= 0) {
            ::close(fd);
            return;
        }
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "laoram_node never became dialable at " << spec;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
}

core::LaoramConfig
engineConfig(std::uint64_t seed)
{
    core::LaoramConfig cfg;
    cfg.base.numBlocks = 96;
    cfg.base.blockBytes = 64;
    cfg.base.payloadBytes = 32;
    cfg.base.encrypt = true;
    cfg.base.seed = seed;
    cfg.superblockSize = 4;
    cfg.lookaheadWindow = kWindow;
    return cfg;
}

std::vector<oram::BlockId>
randomTrace(std::uint64_t accesses, std::uint64_t numBlocks,
            std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<oram::BlockId> trace;
    trace.reserve(accesses);
    for (std::uint64_t i = 0; i < accesses; ++i)
        trace.push_back(rng.nextBounded(numBlocks));
    return trace;
}

void
fillPayloads(core::Laoram &engine, const core::LaoramConfig &cfg)
{
    std::vector<std::uint8_t> buf(cfg.base.payloadBytes);
    for (oram::BlockId id = 0; id < cfg.base.numBlocks; ++id) {
        for (std::size_t i = 0; i < buf.size(); ++i)
            buf[i] = static_cast<std::uint8_t>(id * 131 + i * 7);
        engine.writeBlock(id, buf);
    }
}

core::PipelineConfig
pipelineConfig()
{
    core::PipelineConfig pc;
    pc.windowAccesses = kWindow;
    pc.prepThreads = 2;
    pc.queueDepth = 2;
    return pc;
}

class NodeProcessTest : public ::testing::Test
{
  protected:
    /** Start an iteration from no socket file and no tree. */
    void
    cleanup()
    {
        std::remove(sock.c_str());
        std::remove(tree.c_str());
    }

    /** Engine-geometry node args; @p keep reopens the same tree. */
    std::vector<std::string>
    nodeArgs(bool keep) const
    {
        std::vector<std::string> args = {
            "--listen-uds", sock,           "--blocks",  "96",
            "--block-bytes", "64",          "--payload", "32",
            "--bucket-z",   "4",            "--encrypt",
            "--storage-path", tree,
        };
        if (keep)
            args.push_back("--storage-keep");
        return args;
    }

    const test::ScratchDir scratch;
    const std::string sock = scratch.file("node.sock");
    const std::string tree = scratch.file("node.tree");
    NodeProcess node; ///< reaped before the scratch directory goes
};

TEST_F(NodeProcessTest, SigtermDrainsAndExitsCleanly)
{
    node.start(nodeArgs(false));
    waitDialable("unix:" + sock);

    {
        core::LaoramConfig cfg = engineConfig(7);
        cfg.base.storage.kind = storage::BackendKind::Remote;
        cfg.base.storage.remote.endpoint = "unix:" + sock;
        core::Laoram engine(cfg);
        fillPayloads(engine, cfg);
        std::vector<std::uint8_t> out;
        engine.readBlock(5, out);
        EXPECT_EQ(out[0], static_cast<std::uint8_t>(5 * 131));
    } // client hangs up before the node is told to stop

    EXPECT_EQ(node.terminate(), 0);
    // The drain unlinked the socket file on its way out.
    EXPECT_NE(::access(sock.c_str(), F_OK), 0);
}

TEST_F(NodeProcessTest, SigkillRestartFinishesByteIdentically)
{
    const std::uint64_t iters = core::diffIters() >= 3
                                    ? 3
                                    : core::diffIters();
    Rng pick(core::diffSeed() ^ 0x516B11);
    for (std::uint64_t it = 0; it < iters; ++it) {
        const std::uint64_t seed = core::diffSeed() + it * 7919;
        const core::LaoramConfig cfg = engineConfig(seed);
        const auto trace = randomTrace(
            kWindow * kWindows, cfg.base.numBlocks, seed + 17);
        const std::uint64_t cut = 1 + pick.nextBounded(kWindows - 1);
        const std::string what = "iter " + std::to_string(it)
                                 + " cut " + std::to_string(cut);
        cleanup();

        // Uninterrupted DRAM reference.
        core::Laoram reference(cfg);
        fillPayloads(reference, cfg);
        core::BatchPipeline(reference, pipelineConfig()).run(trace);
        const core::EngineSnapshot snap =
            core::snapshotOf(reference);

        node.start(nodeArgs(false));
        waitDialable("unix:" + sock);

        core::LaoramConfig rcfg = cfg;
        rcfg.base.storage.kind = storage::BackendKind::Remote;
        rcfg.base.storage.remote.endpoint = "unix:" + sock;
        // Generous budget: the redial backoff has to outlast the
        // node's restart, and a SIGKILLed UDS peer can leave the
        // client parked in a response wait only the deadline ends.
        rcfg.base.storage.remote.maxRetries = 40;
        rcfg.base.storage.remote.backoffBaseMs = 5;
        rcfg.base.storage.remote.backoffMaxMs = 100;
        rcfg.base.storage.remote.responseTimeoutMs = 1000;

        {
            core::Laoram engine(rcfg);
            fillPayloads(engine, rcfg);
            core::PipelineConfig pc = pipelineConfig();
            pc.windowBoundaryHook = [&](std::uint64_t w) {
                if (w + 1 != cut)
                    return;
                // Murder the node at the boundary and bring it back
                // over the same tree file; the engine's next RPCs
                // ride the reconnect path while it boots.
                node.kill9();
                node.start(nodeArgs(true));
            };
            core::BatchPipeline(engine, pc).run(trace);

            core::expectMatchesSnapshot(snap, engine, what);
        } // the engine hangs up before the node is told to stop
        EXPECT_EQ(node.terminate(), 0) << what;
    }
}

} // namespace
} // namespace laoram::net
