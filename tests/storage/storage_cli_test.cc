/**
 * @file
 * storage_cli parsing tests: the shared --storage* option plumbing
 * was previously only exercised indirectly through the examples.
 * These cover the defaulted happy path, every rejection branch of
 * storageConfigFromArgsChecked (unknown backend, mmap without a
 * path, unknown durability, --storage-keep without a persistent
 * backing file, --remote-* knobs without --storage=remote, the
 * --checkpoint-path/--restore combination rules), the remote
 * link-knob parsing, and the durability-name round-trip.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "storage/storage_cli.hh"
#include "util/cli.hh"

namespace laoram::storage {
namespace {

struct ParsedArgs
{
    ArgParser parser{"storage_cli_test", "parsing fixture"};
    StorageArgs storage;

    explicit ParsedArgs(const std::vector<std::string> &argv,
                        const std::string &defaultPath = "")
        : storage(addStorageArgs(parser, defaultPath))
    {
        std::string error;
        EXPECT_TRUE(parser.parseVector(argv, &error)) << error;
    }
};

TEST(StorageCli, DefaultsToFreshDramBufferedStore)
{
    ParsedArgs args({});
    StorageConfig cfg;
    std::string error;
    ASSERT_TRUE(
        storageConfigFromArgsChecked(args.storage, &cfg, &error))
        << error;
    EXPECT_EQ(cfg.kind, BackendKind::Dram);
    EXPECT_EQ(cfg.durability, Durability::Buffered);
    EXPECT_FALSE(cfg.keepExisting);
}

TEST(StorageCli, MmapWithPathAndDurabilityParses)
{
    ParsedArgs args({"--storage", "mmap", "--storage-path", "t.tree",
                     "--storage-durability", "sync",
                     "--storage-keep"});
    StorageConfig cfg;
    std::string error;
    ASSERT_TRUE(
        storageConfigFromArgsChecked(args.storage, &cfg, &error))
        << error;
    EXPECT_EQ(cfg.kind, BackendKind::MmapFile);
    EXPECT_EQ(cfg.path, "t.tree");
    EXPECT_EQ(cfg.durability, Durability::Sync);
    EXPECT_TRUE(cfg.keepExisting);
}

TEST(StorageCli, DefaultPathSeedsStoragePath)
{
    ParsedArgs args({"--storage", "mmap"}, "seeded.tree");
    StorageConfig cfg;
    ASSERT_TRUE(storageConfigFromArgsChecked(args.storage, &cfg));
    EXPECT_EQ(cfg.path, "seeded.tree");
}

TEST(StorageCli, UnknownBackendIsRejectedWithBothNames)
{
    ParsedArgs args({"--storage", "tape"});
    std::string error;
    EXPECT_FALSE(
        storageConfigFromArgsChecked(args.storage, nullptr, &error));
    // The message must name the offender and the accepted values.
    EXPECT_NE(error.find("tape"), std::string::npos) << error;
    EXPECT_NE(error.find("dram"), std::string::npos) << error;
    EXPECT_NE(error.find("mmap"), std::string::npos) << error;
}

TEST(StorageCli, MmapWithoutPathIsRejected)
{
    ParsedArgs args({"--storage", "mmap"});
    std::string error;
    EXPECT_FALSE(
        storageConfigFromArgsChecked(args.storage, nullptr, &error));
    EXPECT_NE(error.find("--storage-path"), std::string::npos)
        << error;
}

TEST(StorageCli, UnknownDurabilityIsRejected)
{
    ParsedArgs args({"--storage-durability", "eventually"});
    std::string error;
    EXPECT_FALSE(
        storageConfigFromArgsChecked(args.storage, nullptr, &error));
    EXPECT_NE(error.find("eventually"), std::string::npos) << error;
    EXPECT_NE(error.find("buffered"), std::string::npos) << error;
}

TEST(StorageCli, KeepWithoutPersistentBackendIsRejected)
{
    // --storage-keep on the (default) DRAM backend would silently
    // hand the user a fresh store; it must be rejected, and the
    // message must point at the persistent alternative.
    ParsedArgs args({"--storage-keep"});
    std::string error;
    EXPECT_FALSE(
        storageConfigFromArgsChecked(args.storage, nullptr, &error));
    EXPECT_NE(error.find("--storage-keep"), std::string::npos)
        << error;
    EXPECT_NE(error.find("mmap"), std::string::npos) << error;
}

TEST(StorageCli, RejectionLeavesOutputUntouched)
{
    ParsedArgs args({"--storage", "tape"});
    StorageConfig cfg;
    cfg.kind = BackendKind::MmapFile;
    cfg.path = "sentinel";
    EXPECT_FALSE(storageConfigFromArgsChecked(args.storage, &cfg));
    EXPECT_EQ(cfg.kind, BackendKind::MmapFile);
    EXPECT_EQ(cfg.path, "sentinel");
}

TEST(StorageCli, RemoteBackendParsesWithLinkKnobs)
{
    ParsedArgs args({"--storage", "remote", "--remote-latency-us",
                     "50", "--remote-mbps", "200", "--remote-window",
                     "8"});
    StorageConfig cfg;
    std::string error;
    ASSERT_TRUE(
        storageConfigFromArgsChecked(args.storage, &cfg, &error))
        << error;
    EXPECT_EQ(cfg.kind, BackendKind::Remote);
    EXPECT_EQ(cfg.remote.latencyNs, 50'000);
    EXPECT_EQ(cfg.remote.bytesPerSec, 200'000'000u);
    EXPECT_EQ(cfg.remote.windowDepth, 8u);
}

TEST(StorageCli, RemoteDefaultsToUnshapedLink)
{
    ParsedArgs args({"--storage", "remote"});
    StorageConfig cfg;
    ASSERT_TRUE(storageConfigFromArgsChecked(args.storage, &cfg));
    EXPECT_EQ(cfg.kind, BackendKind::Remote);
    EXPECT_EQ(cfg.remote.latencyNs, 0);
    EXPECT_EQ(cfg.remote.bytesPerSec, 0u);
    EXPECT_EQ(cfg.remote.windowDepth, 4u);
}

TEST(StorageCli, RemoteIgnoresSeededDefaultPath)
{
    // Examples seed --storage-path as an mmap convenience; a remote
    // node must not silently inherit it and start persisting to disk
    // — only an *explicit* --storage-path makes the node persistent.
    ParsedArgs seeded({"--storage", "remote"}, "demo.tree");
    StorageConfig cfg;
    ASSERT_TRUE(storageConfigFromArgsChecked(seeded.storage, &cfg));
    EXPECT_EQ(cfg.kind, BackendKind::Remote);
    EXPECT_TRUE(cfg.path.empty());

    // ...even when the explicit value equals the seeded default.
    ParsedArgs explicitPath(
        {"--storage", "remote", "--storage-path", "demo.tree"},
        "demo.tree");
    ASSERT_TRUE(
        storageConfigFromArgsChecked(explicitPath.storage, &cfg));
    EXPECT_EQ(cfg.path, "demo.tree");

    // mmap keeps the convenience default.
    ParsedArgs mmapSeeded({"--storage", "mmap"}, "demo.tree");
    ASSERT_TRUE(
        storageConfigFromArgsChecked(mmapSeeded.storage, &cfg));
    EXPECT_EQ(cfg.path, "demo.tree");
}

TEST(StorageCli, KeepOnRemoteWithSeededDefaultPathIsRejected)
{
    // Without an explicit path the remote node is DRAM-backed, so
    // --storage-keep is the same trap as on local DRAM — even when a
    // default path was seeded.
    ParsedArgs args({"--storage", "remote", "--storage-keep"},
                    "demo.tree");
    std::string error;
    EXPECT_FALSE(
        storageConfigFromArgsChecked(args.storage, nullptr, &error));
    EXPECT_NE(error.find("--storage-keep"), std::string::npos)
        << error;
}

TEST(StorageCli, RemoteFlagsOnNonRemoteBackendAreRejected)
{
    // A shaped link on a local backend measures nothing; silently
    // ignoring the flags would fake a slow-remote experiment. Every
    // --remote-* knob must be rejected unless --storage=remote.
    // The last two cases pass the *registered default* values
    // explicitly — presence tracking must reject those too, not just
    // non-default values.
    for (const std::vector<std::string> &argv :
         {std::vector<std::string>{"--remote-latency-us", "50"},
          std::vector<std::string>{"--remote-mbps", "100"},
          std::vector<std::string>{"--remote-window", "8"},
          std::vector<std::string>{"--storage", "mmap",
                                   "--storage-path", "t.tree",
                                   "--remote-latency-us", "50"},
          std::vector<std::string>{"--remote-window", "4"},
          std::vector<std::string>{"--remote-latency-us", "0"}}) {
        ParsedArgs args(argv);
        std::string error;
        EXPECT_FALSE(
            storageConfigFromArgsChecked(args.storage, nullptr,
                                         &error));
        EXPECT_NE(error.find("--storage=remote"), std::string::npos)
            << error;
    }
}

TEST(StorageCli, RemoteWindowZeroIsRejected)
{
    ParsedArgs args({"--storage", "remote", "--remote-window", "0"});
    std::string error;
    EXPECT_FALSE(
        storageConfigFromArgsChecked(args.storage, nullptr, &error));
    EXPECT_NE(error.find("--remote-window"), std::string::npos)
        << error;
}

TEST(StorageCli, KeepOnPathlessRemoteIsRejected)
{
    // A remote node without a backing path serves from its own DRAM
    // and dies with the process — same trap as --storage-keep on
    // local DRAM.
    ParsedArgs args({"--storage", "remote", "--storage-keep"});
    std::string error;
    EXPECT_FALSE(
        storageConfigFromArgsChecked(args.storage, nullptr, &error));
    EXPECT_NE(error.find("--storage-keep"), std::string::npos)
        << error;
}

TEST(StorageCli, KeepOnPersistentRemoteParses)
{
    ParsedArgs args({"--storage", "remote", "--storage-path",
                     "node.tree", "--storage-keep"});
    StorageConfig cfg;
    std::string error;
    ASSERT_TRUE(
        storageConfigFromArgsChecked(args.storage, &cfg, &error))
        << error;
    EXPECT_EQ(cfg.kind, BackendKind::Remote);
    EXPECT_TRUE(cfg.keepExisting);
    EXPECT_EQ(cfg.path, "node.tree");
}

TEST(StorageCli, RemoteEndpointParsesWithRetryKnobs)
{
    ParsedArgs args({"--storage", "remote", "--remote-endpoint",
                     "node0:7070", "--remote-retries", "3",
                     "--remote-timeout-ms", "250"});
    StorageConfig cfg;
    std::string error;
    ASSERT_TRUE(
        storageConfigFromArgsChecked(args.storage, &cfg, &error))
        << error;
    EXPECT_EQ(cfg.kind, BackendKind::Remote);
    EXPECT_EQ(cfg.remote.endpoint, "node0:7070");
    EXPECT_EQ(cfg.remote.maxRetries, 3u);
    EXPECT_EQ(cfg.remote.responseTimeoutMs, 250);
    EXPECT_TRUE(cfg.path.empty());

    ParsedArgs uds({"--storage", "remote", "--remote-endpoint",
                    "unix:/run/node.sock"});
    ASSERT_TRUE(storageConfigFromArgsChecked(uds.storage, &cfg,
                                             &error))
        << error;
    EXPECT_EQ(cfg.remote.endpoint, "unix:/run/node.sock");
}

TEST(StorageCli, RemoteEndpointRejectsExplicitStoragePath)
{
    // The node at the endpoint owns the tree file; a client-side
    // path would silently do nothing.
    ParsedArgs args({"--storage", "remote", "--remote-endpoint",
                     "node0:7070", "--storage-path", "t.tree"});
    std::string error;
    EXPECT_FALSE(
        storageConfigFromArgsChecked(args.storage, nullptr, &error));
    EXPECT_NE(error.find("mutually exclusive"), std::string::npos)
        << error;
}

TEST(StorageCli, RemoteEndpointRejectsMalformedSpelling)
{
    ParsedArgs args({"--storage", "remote", "--remote-endpoint",
                     "not-an-endpoint"});
    std::string error;
    EXPECT_FALSE(
        storageConfigFromArgsChecked(args.storage, nullptr, &error));
    EXPECT_NE(error.find("--remote-endpoint"), std::string::npos)
        << error;
}

TEST(StorageCli, RetryKnobsWithoutEndpointApplyToSelfHostedNode)
{
    // A self-hosted client dials its in-process node through the same
    // retry/replay path as an endpoint client, so both knobs apply.
    ParsedArgs args({"--storage", "remote", "--remote-retries", "3",
                     "--remote-timeout-ms", "100"});
    StorageConfig cfg;
    std::string error;
    ASSERT_TRUE(
        storageConfigFromArgsChecked(args.storage, &cfg, &error))
        << error;
    EXPECT_EQ(cfg.kind, BackendKind::Remote);
    EXPECT_TRUE(cfg.remote.endpoint.empty());
    EXPECT_EQ(cfg.remote.maxRetries, 3u);
    EXPECT_EQ(cfg.remote.responseTimeoutMs, 100);
}

TEST(StorageCli, KeepAndCheckpointParseOnEndpointRemote)
{
    // The node at the endpoint may own a persistent tree, so keep +
    // checkpoint are allowed; the Hello handshake settles at connect
    // time whether the tree really survives.
    ParsedArgs args({"--storage", "remote", "--remote-endpoint",
                     "node0:7070", "--storage-keep",
                     "--checkpoint-path", "c.ckpt"});
    StorageConfig cfg;
    CheckpointConfig ckpt;
    std::string error;
    ASSERT_TRUE(storageConfigFromArgsChecked(args.storage, &cfg,
                                             &ckpt, &error))
        << error;
    EXPECT_TRUE(cfg.keepExisting);
    EXPECT_EQ(ckpt.path, "c.ckpt");
}

TEST(StorageCli, CheckpointPathOnPersistentBackendsParses)
{
    // mmap carries the sidecar next to its tree file...
    ParsedArgs mmapArgs({"--storage", "mmap", "--storage-path",
                         "t.tree", "--checkpoint-path", "t.ckpt"});
    StorageConfig cfg;
    CheckpointConfig ckpt;
    std::string error;
    ASSERT_TRUE(storageConfigFromArgsChecked(mmapArgs.storage, &cfg,
                                             &ckpt, &error))
        << error;
    EXPECT_EQ(ckpt.path, "t.ckpt");
    EXPECT_FALSE(ckpt.restore);

    // ...and so does a remote node with a persistent tree.
    ParsedArgs remoteArgs({"--storage", "remote", "--storage-path",
                           "node.tree", "--checkpoint-path",
                           "node.ckpt"});
    ASSERT_TRUE(storageConfigFromArgsChecked(remoteArgs.storage, &cfg,
                                             &ckpt, &error))
        << error;
    EXPECT_EQ(ckpt.path, "node.ckpt");
}

TEST(StorageCli, RestoreOverReopenedTreeParses)
{
    ParsedArgs args({"--storage", "mmap", "--storage-path", "t.tree",
                     "--storage-keep", "--checkpoint-path", "t.ckpt",
                     "--restore"});
    StorageConfig cfg;
    CheckpointConfig ckpt;
    std::string error;
    ASSERT_TRUE(storageConfigFromArgsChecked(args.storage, &cfg,
                                             &ckpt, &error))
        << error;
    EXPECT_TRUE(cfg.keepExisting);
    EXPECT_EQ(ckpt.path, "t.ckpt");
    EXPECT_TRUE(ckpt.restore);
}

TEST(StorageCli, RestoreWithoutCheckpointPathIsRejected)
{
    ParsedArgs args({"--storage", "mmap", "--storage-path", "t.tree",
                     "--storage-keep", "--restore"});
    StorageConfig cfg;
    CheckpointConfig ckpt;
    std::string error;
    EXPECT_FALSE(storageConfigFromArgsChecked(args.storage, &cfg,
                                              &ckpt, &error));
    EXPECT_NE(error.find("--checkpoint-path"), std::string::npos)
        << error;
}

TEST(StorageCli, CheckpointPathWithoutPersistentBackendIsRejected)
{
    // A trusted-state snapshot is only valid against the tree it was
    // taken with; on DRAM (local, or behind a pathless remote node)
    // the tree dies with the process, so a sidecar would restore over
    // garbage. Both must be rejected with a pointer at the
    // persistent alternatives.
    for (const std::vector<std::string> &argv :
         {std::vector<std::string>{"--checkpoint-path", "t.ckpt"},
          std::vector<std::string>{"--storage", "remote",
                                   "--checkpoint-path", "t.ckpt"}}) {
        ParsedArgs args(argv);
        StorageConfig cfg;
        CheckpointConfig ckpt;
        std::string error;
        EXPECT_FALSE(storageConfigFromArgsChecked(args.storage, &cfg,
                                                  &ckpt, &error));
        EXPECT_NE(error.find("--checkpoint-path"), std::string::npos)
            << error;
        EXPECT_NE(error.find("mmap"), std::string::npos) << error;
    }
}

TEST(StorageCli, RestoreWithoutKeepIsRejected)
{
    // Without --storage-keep the tree file is re-initialised at
    // startup, so restored client state would point into a wiped
    // store.
    ParsedArgs args({"--storage", "mmap", "--storage-path", "t.tree",
                     "--checkpoint-path", "t.ckpt", "--restore"});
    StorageConfig cfg;
    CheckpointConfig ckpt;
    std::string error;
    EXPECT_FALSE(storageConfigFromArgsChecked(args.storage, &cfg,
                                              &ckpt, &error));
    EXPECT_NE(error.find("--storage-keep"), std::string::npos)
        << error;
}

TEST(StorageCli, CheckpointFlagsWithoutConsumerAreRejected)
{
    // The storage-only overload is used by tools with no checkpoint
    // support; silently ignoring --checkpoint-path there would fake
    // durability the tool does not provide.
    ParsedArgs args({"--storage", "mmap", "--storage-path", "t.tree",
                     "--checkpoint-path", "t.ckpt"});
    StorageConfig cfg;
    std::string error;
    EXPECT_FALSE(
        storageConfigFromArgsChecked(args.storage, &cfg, &error));
    EXPECT_NE(error.find("does not support"), std::string::npos)
        << error;
}

TEST(StorageCli, DurabilityModeRoundTripsThroughItsName)
{
    for (const Durability mode :
         {Durability::Buffered, Durability::Async, Durability::Sync}) {
        const std::string name = durabilityName(mode);
        ParsedArgs args({"--storage", "mmap", "--storage-path", "x",
                         "--storage-durability", name});
        StorageConfig cfg;
        std::string error;
        ASSERT_TRUE(
            storageConfigFromArgsChecked(args.storage, &cfg, &error))
            << name << ": " << error;
        EXPECT_EQ(cfg.durability, mode) << name;
        EXPECT_STREQ(durabilityName(cfg.durability), name.c_str());
    }
}

} // namespace
} // namespace laoram::storage
