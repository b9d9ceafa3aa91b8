/**
 * @file
 * Storage-backend comparison: the same LAORAM pipeline served from
 * DRAM, a persistent mmap tree (warm and cold page cache), and a
 * remote-KV node over batched/async RPC (unshaped, and shaped to a
 * slow-network regime with --remote-latency-us / --remote-mbps) —
 * plus a remote-loopback variant that dials a real TCP listener on
 * 127.0.0.1, so the RPC cost includes the genuine kernel socket path
 * instead of an in-process socketpair.
 *
 * For each backend the bench reports wall-clock serving throughput,
 * the *measured* backend I/O stall (IoStats: time spent moving slot
 * records, including the page faults that pull a file-backed tree
 * from disk and the RPC waits of a remote tree; encryption is not
 * part of it), and
 * the DRAM-resident footprint — the honest version of "how much
 * memory does the tree cost", which for an mmap tree is the mapped
 * page set and for a remote tree the *server node's* residency.
 *
 * Modes:
 *   default  CI-sized geometry (seconds)
 *   --smoke  tiny geometry for the CI regression gate
 *   --full   paper-scale Kaggle geometry (payload materialised; the
 *            mmap tree file grows to multiple GiB)
 *
 * Emits BENCH_storage_backends.json for cross-PR tracking.
 */

#include <cstdio>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/harness.hh"
#include "core/pipeline.hh"
#include "net/node_server.hh"
#include "oram/tree_geometry.hh"
#include "storage/remote_backend.hh"
#include "storage/slot_backend.hh"
#include "util/cli.hh"

using namespace laoram;

namespace {

struct Variant
{
    std::string label;     ///< dram | mmap-warm | mmap-cold
    storage::StorageConfig storage;
    bool coldCache = false;
};

struct Result
{
    std::string label;
    double wallMs = 0.0;
    double accessesPerSec = 0.0;
    double ioMs = 0.0;
    double ioServePct = 0.0;
    double stallMs = 0.0;
    std::uint64_t residentBytes = 0;
    std::uint64_t slotsTouched = 0;
};

Result
runVariant(const Variant &v, std::uint64_t blocks,
           std::uint64_t payload, std::uint64_t superblock,
           std::uint64_t window, const std::vector<oram::BlockId> &trace)
{
    core::LaoramConfig cfg;
    cfg.base.numBlocks = blocks;
    cfg.base.blockBytes = payload > 0 ? payload : 128;
    cfg.base.payloadBytes = payload;
    cfg.base.seed = 1;
    cfg.base.storage = v.storage;
    cfg.superblockSize = superblock;
    core::Laoram engine(cfg);

    if (v.coldCache)
        engine.storageForTest().dropPageCache();

    core::PipelineConfig pc;
    pc.windowAccesses = window;
    pc.mode = core::PipelineMode::Concurrent;
    core::BatchPipeline pipe(engine, pc);

    const storage::IoStats ioBefore = engine.storageForAudit().ioStats();
    const auto rep = pipe.run(trace);
    const storage::IoStats io =
        engine.storageForAudit().ioStats().since(ioBefore);

    Result r;
    r.label = v.label;
    r.wallMs = rep.wallTotalNs / 1e6;
    r.accessesPerSec = rep.wallTotalNs > 0.0
        ? static_cast<double>(trace.size()) / (rep.wallTotalNs / 1e9)
        : 0.0;
    r.ioMs = rep.wallIoNs / 1e6;
    r.ioServePct = rep.ioServeFraction * 100.0;
    r.stallMs = rep.wallStallNs / 1e6;
    r.residentBytes = engine.storageForAudit().residentBytes();
    r.slotsTouched = io.slotsRead + io.slotsWritten;
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("bench_storage_backends",
                   "DRAM vs persistent mmap tree stores under the "
                   "two-stage pipeline");
    auto blocks = args.addUint("blocks", "embedding rows", 1 << 14);
    auto payload = args.addUint("payload",
                                "payload bytes materialised per block",
                                128);
    auto accesses = args.addUint("accesses", "trace length", 1 << 14);
    auto superblock = args.addUint("superblock", "LAORAM S", 4);
    auto window = args.addUint("window", "pipeline window accesses",
                               2048);
    auto seed = args.addUint("seed", "trace seed", 7);
    auto path = args.addString("mmap-path",
                               "backing file for the mmap variants",
                               "laoram_bench_tree.bin");
    auto smoke = args.addFlag("smoke",
                              "tiny geometry (CI regression gate)");
    auto full = args.addFlag("full",
                             "paper-scale Kaggle geometry (GiB-sized "
                             "tree file)");
    auto remoteLatencyUs = args.addUint(
        "remote-latency-us",
        "shaped per-RPC latency of the remote-shaped variant", 50);
    auto remoteMbps = args.addUint(
        "remote-mbps",
        "shaped link bandwidth of the remote-shaped variant (MB/s, "
        "0 = unlimited)",
        500);
    args.parse(argc, argv);

    std::uint64_t nBlocks = *blocks;
    std::uint64_t nAccesses = *accesses;
    std::uint64_t payloadBytes = *payload;
    if (*smoke) {
        nBlocks = 1 << 10;
        nAccesses = 1 << 11;
        payloadBytes = 64;
    } else if (*full) {
        nBlocks = 10131227; // Kaggle entries (Table I)
        nAccesses = 1 << 18;
        payloadBytes = 128;
    }

    bench::printHeader(
        "Storage backends — DRAM vs mmap (warm/cold) vs remote KV "
        "(unshaped/shaped)",
        "one two-stage pipeline per variant; I/O stall is measured "
        "backend time, not a model");
    std::cout << nAccesses << " accesses over " << nBlocks
              << " blocks, payload " << payloadBytes << " B, S="
              << *superblock << ", window " << *window << "\n\n";

    const auto trace = bench::randomTrace(nBlocks, nAccesses, *seed);

    std::vector<Variant> variants;
    {
        Variant dram;
        dram.label = "dram";
        variants.push_back(dram);

        Variant warm;
        warm.label = "mmap-warm";
        warm.storage.kind = storage::BackendKind::MmapFile;
        warm.storage.path = *path;
        variants.push_back(warm);

        Variant cold = warm;
        cold.label = "mmap-cold";
        cold.coldCache = true;
        variants.push_back(cold);

        // Remote-KV node over DRAM: one vectored RPC per path, async
        // write window. Unshaped isolates the protocol cost; shaped
        // reproduces a slow-network regime deterministically.
        Variant remote;
        remote.label = "remote";
        remote.storage.kind = storage::BackendKind::Remote;
        variants.push_back(remote);

        Variant shaped = remote;
        shaped.label = "remote-shaped";
        shaped.storage.remote.latencyNs =
            static_cast<std::int64_t>(*remoteLatencyUs) * 1000;
        shaped.storage.remote.bytesPerSec =
            *remoteMbps * 1000 * 1000;
        variants.push_back(shaped);
    }

    // Real-loopback node: the same protocol and client path over an
    // accepted TCP connection (kernel socket path, Nagle off) — only
    // the dial differs from the self-hosted node's socketpair. This
    // is what a laoram_node deployment pays on a one-host testbed.
    const oram::TreeGeometry nodeGeom(
        nBlocks, payloadBytes > 0 ? payloadBytes : 128,
        oram::BucketProfile::uniform(4));
    storage::RemoteKvServer node(
        storage::makeBackend(storage::StorageConfig{},
                             nodeGeom.totalSlots(), 16 + payloadBytes,
                             0),
        storage::RemoteKvConfig{});
    std::unique_ptr<net::NodeListener> listener;
    {
        net::Endpoint ep;
        std::string error;
        if (parseEndpoint("127.0.0.1:0", &ep, &error)) {
            listener = std::make_unique<net::NodeListener>(node, ep);
            Variant loopback;
            loopback.label = "remote-loopback";
            loopback.storage.kind = storage::BackendKind::Remote;
            loopback.storage.remote.endpoint =
                listener->endpoint().str();
            variants.push_back(loopback);
        }
    }

    bench::BenchJson json("storage_backends");
    json.add("blocks", nBlocks);
    json.add("accesses", nAccesses);
    json.add("payload_bytes", payloadBytes);

    std::cout << "  backend      wall ms   kacc/s   io ms   io/serve"
                 "   queue-stall ms   resident MiB\n";
    for (const Variant &v : variants) {
        const Result r = runVariant(v, nBlocks, payloadBytes,
                                    *superblock, *window, trace);
        std::cout << std::fixed << std::setprecision(2) << "  "
                  << std::left << std::setw(10) << r.label
                  << std::right << std::setw(10) << r.wallMs
                  << std::setw(9) << r.accessesPerSec / 1e3
                  << std::setw(8) << r.ioMs << std::setw(10)
                  << r.ioServePct << "%" << std::setw(16) << r.stallMs
                  << std::setw(15)
                  << static_cast<double>(r.residentBytes)
                     / (1024.0 * 1024.0)
                  << "\n";

        json.add(r.label + ".wall_ms", r.wallMs);
        json.add(r.label + ".accesses_per_sec", r.accessesPerSec);
        json.add(r.label + ".io_stall_ms", r.ioMs);
        json.add(r.label + ".io_serve_fraction",
                 r.ioServePct / 100.0);
        json.add(r.label + ".queue_stall_ms", r.stallMs);
        json.add(r.label + ".resident_bytes", r.residentBytes);
        json.add(r.label + ".slots_touched", r.slotsTouched);
    }
    std::remove(path->c_str());

    std::cout
        << "\ndram serves from the heap; mmap-warm from the page "
           "cache; mmap-cold\nfaults the tree back in from the file; "
           "remote moves every path over a\nbatched RPC link "
           "(remote-shaped adds modeled latency/bandwidth), so the\n"
           "io/serve share is the genuine disk or network wait the "
           "pipeline's prep\nstage gets to hide behind.\n";
    json.write();
    return 0;
}
