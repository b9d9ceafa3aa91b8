#include "storage/storage_cli.hh"

#include <string>
#include <utility>

#include "util/logging.hh"

namespace laoram::storage {

StorageArgs
addStorageArgs(ArgParser &args, const std::string &defaultPath)
{
    StorageArgs sa;
    sa.backend = args.addString(
        "storage", "tree storage backend: dram | mmap | remote",
        "dram");
    sa.path = args.addString(
        "storage-path",
        "backing file for --storage=mmap (and, when given explicitly, "
        "the persistent tree of a --storage=remote node)",
        defaultPath);
    sa.pathSeen = args.seenTracker("storage-path");
    sa.durability = args.addString(
        "storage-durability",
        "mmap flush policy: buffered | async | sync", "buffered");
    sa.keepExisting = args.addFlag(
        "storage-keep",
        "reopen an existing compatible tree file instead of "
        "re-initialising it");
    sa.remoteLatencyUs = args.addUint(
        "remote-latency-us",
        "--storage=remote: shaped per-RPC latency in microseconds",
        0);
    sa.remoteMbps = args.addUint(
        "remote-mbps",
        "--storage=remote: shaped link bandwidth in MB/s (0 = "
        "unlimited)",
        0);
    sa.remoteWindow = args.addUint(
        "remote-window",
        "--storage=remote: max async write RPCs in flight", 4);
    sa.remoteLatencySeen = args.seenTracker("remote-latency-us");
    sa.remoteMbpsSeen = args.seenTracker("remote-mbps");
    sa.remoteWindowSeen = args.seenTracker("remote-window");
    sa.remoteEndpoint = args.addString(
        "remote-endpoint",
        "--storage=remote: dial an out-of-process laoram_node at "
        "host:port or unix:PATH instead of self-hosting the node "
        "in-process",
        "");
    sa.remoteRetries = args.addUint(
        "remote-retries",
        "--storage=remote: reconnect attempts per lost connection, "
        "with bounded exponential backoff (0 = fail fast)",
        8);
    sa.remoteTimeoutMs = args.addUint(
        "remote-timeout-ms",
        "--storage=remote: deadline on each response wait before "
        "the connection counts as lost (0 = wait forever)",
        0);
    sa.remoteEndpointSeen = args.seenTracker("remote-endpoint");
    sa.remoteRetriesSeen = args.seenTracker("remote-retries");
    sa.remoteTimeoutSeen = args.seenTracker("remote-timeout-ms");
    sa.checkpointPath = args.addString(
        "checkpoint-path",
        "client-side sidecar file for trusted-state snapshots "
        "(position map, stash, RNG streams); requires a persistent "
        "backend",
        "");
    sa.checkpointPathSeen = args.seenTracker("checkpoint-path");
    sa.restore = args.addFlag(
        "restore",
        "restore trusted client state from --checkpoint-path at "
        "startup (requires --storage-keep over the matching tree)");
    return sa;
}

namespace {

void
setError(std::string *error, std::string message)
{
    if (error != nullptr)
        *error = std::move(message);
}

} // namespace

bool
storageConfigFromArgsChecked(const StorageArgs &sa, StorageConfig *out,
                             std::string *error)
{
    return storageConfigFromArgsChecked(sa, out, nullptr, error);
}

bool
storageConfigFromArgsChecked(const StorageArgs &sa, StorageConfig *out,
                             CheckpointConfig *checkpoint,
                             std::string *error)
{
    StorageConfig cfg;
    if (*sa.backend == "dram") {
        cfg.kind = BackendKind::Dram;
    } else if (*sa.backend == "mmap") {
        cfg.kind = BackendKind::MmapFile;
        if (sa.path->empty()) {
            setError(error, "--storage=mmap requires --storage-path");
            return false;
        }
    } else if (*sa.backend == "remote") {
        cfg.kind = BackendKind::Remote;
    } else {
        setError(error, "unknown --storage backend '" + *sa.backend
                            + "' (expected dram, mmap or remote)");
        return false;
    }
    // A remote node persists (mmap-inner) only when the user *asked*
    // for a path: the convenience default that seeds --storage-path
    // for mmap must not silently turn the documented DRAM-backed node
    // into one that writes a tree file.
    if (cfg.kind == BackendKind::Remote && !*sa.pathSeen)
        cfg.path.clear();
    else
        cfg.path = *sa.path;

    if (cfg.kind == BackendKind::Remote) {
        if (*sa.remoteWindow == 0) {
            setError(error, "--remote-window must be at least 1 "
                            "(one RPC in flight)");
            return false;
        }
        cfg.remote.latencyNs =
            static_cast<std::int64_t>(*sa.remoteLatencyUs) * 1000;
        cfg.remote.bytesPerSec = *sa.remoteMbps * 1000 * 1000;
        cfg.remote.windowDepth =
            static_cast<std::size_t>(*sa.remoteWindow);
        cfg.remote.maxRetries =
            static_cast<std::uint32_t>(*sa.remoteRetries);
        cfg.remote.responseTimeoutMs =
            static_cast<std::int64_t>(*sa.remoteTimeoutMs);
        if (!sa.remoteEndpoint->empty()) {
            // Endpoint mode: the laoram_node at that address owns the
            // tree (and its file); a client-side path would silently
            // do nothing.
            if (!cfg.path.empty()) {
                setError(error,
                         "--remote-endpoint and --storage-path are "
                         "mutually exclusive: the node at the "
                         "endpoint owns the tree file (pass the path "
                         "to laoram_node instead)");
                return false;
            }
            if (sa.remoteEndpoint->rfind("unix:", 0) != 0
                && sa.remoteEndpoint->rfind(':')
                       == std::string::npos) {
                setError(error, "--remote-endpoint '"
                                    + *sa.remoteEndpoint
                                    + "' is not host:port or "
                                      "unix:PATH");
                return false;
            }
            cfg.remote.endpoint = *sa.remoteEndpoint;
        }
    } else if (*sa.remoteLatencySeen || *sa.remoteMbpsSeen
               || *sa.remoteWindowSeen || *sa.remoteEndpointSeen
               || *sa.remoteRetriesSeen || *sa.remoteTimeoutSeen) {
        // A shaped link on a local backend would silently measure
        // nothing: the --remote-* knobs only exist on the RPC path,
        // so reject them loudly instead of ignoring them. Presence-
        // tracked, so even an explicitly-passed default value trips
        // this.
        setError(error, "--remote-latency-us/--remote-mbps/"
                        "--remote-window/--remote-endpoint/"
                        "--remote-retries/--remote-timeout-ms "
                        "require --storage=remote");
        return false;
    }

    if (*sa.durability == "buffered")
        cfg.durability = Durability::Buffered;
    else if (*sa.durability == "async")
        cfg.durability = Durability::Async;
    else if (*sa.durability == "sync")
        cfg.durability = Durability::Sync;
    else {
        setError(error, "unknown --storage-durability '"
                            + *sa.durability
                            + "' (expected buffered, async or sync)");
        return false;
    }

    cfg.keepExisting = *sa.keepExisting;
    if (cfg.keepExisting
        && (cfg.kind == BackendKind::Dram
            || (cfg.kind == BackendKind::Remote && cfg.path.empty()
                && cfg.remote.endpoint.empty()))) {
        // A DRAM tree (local, or behind a pathless remote node) dies
        // with the process: "keep" it and the run would silently
        // serve a fresh store while the user believes state survived.
        // Reject loudly instead.
        setError(error, "--storage-keep requires a persistent backend "
                        "(--storage=mmap, or --storage=remote with "
                        "--storage-path or --remote-endpoint)");
        return false;
    }

    // ---- Trusted-state checkpoint knobs. ----
    const bool checkpointSeen = *sa.checkpointPathSeen || *sa.restore;
    if (checkpoint == nullptr && checkpointSeen) {
        // The caller never consumes a CheckpointConfig; accepting the
        // options would silently drop the user's durability request.
        setError(error, "this tool does not support "
                        "--checkpoint-path/--restore");
        return false;
    }
    CheckpointConfig ckpt;
    ckpt.path = *sa.checkpointPath;
    ckpt.restore = *sa.restore;
    if (ckpt.restore && ckpt.path.empty()) {
        setError(error,
                 "--restore requires --checkpoint-path (there is no "
                 "snapshot to restore from)");
        return false;
    }
    // An endpoint node counts as potentially persistent: whether its
    // tree actually survives is the node's configuration, which the
    // handshake reports at connect time.
    const bool persistent =
        cfg.kind == BackendKind::MmapFile
        || (cfg.kind == BackendKind::Remote
            && (!cfg.path.empty() || !cfg.remote.endpoint.empty()));
    if (!ckpt.path.empty() && !persistent) {
        // A snapshot is only meaningful against the tree it was taken
        // with; a DRAM tree dies with the process.
        setError(error, "--checkpoint-path requires a persistent "
                        "backend (--storage=mmap, or --storage=remote "
                        "with --storage-path)");
        return false;
    }
    if (ckpt.restore && !cfg.keepExisting) {
        setError(error,
                 "--restore requires --storage-keep: restored client "
                 "state is only valid over the reopened tree the "
                 "snapshot was taken with");
        return false;
    }

    if (out != nullptr)
        *out = std::move(cfg);
    if (checkpoint != nullptr)
        *checkpoint = std::move(ckpt);
    return true;
}

StorageConfig
storageConfigFromArgs(const StorageArgs &sa, CheckpointConfig *checkpoint)
{
    StorageConfig cfg;
    std::string error;
    if (!storageConfigFromArgsChecked(sa, &cfg, checkpoint, &error))
        LAORAM_FATAL(error);
    return cfg;
}

const char *
durabilityName(Durability durability)
{
    switch (durability) {
    case Durability::Buffered:
        return "buffered";
    case Durability::Async:
        return "async";
    case Durability::Sync:
        return "sync";
    }
    return "unknown";
}

} // namespace laoram::storage
