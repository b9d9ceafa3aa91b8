/**
 * @file
 * A generic oblivious key-value store built on the library's ORAM
 * engines — demonstrating that the substrate is reusable beyond
 * embedding training.
 *
 * Stores string values (up to one block) under integer keys with
 * ChaCha20 encryption at rest; an interactive-style scripted session
 * shows puts/gets while printing what the untrusted server actually
 * observes (uniform path traffic, nothing else).
 */

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "obs/obs_cli.hh"
#include "obs/run_report.hh"
#include "oram/path_oram.hh"
#include "oram/ring_oram.hh"
#include "storage/storage_cli.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/rng.hh"

using namespace laoram;

namespace {

/** Thin typed wrapper over an ORAM engine. */
class ObliviousKv
{
  public:
    ObliviousKv(oram::OramEngine &engine, std::uint64_t valueBytes)
        : engine(engine), valueBytes(valueBytes)
    {
    }

    void
    put(std::uint64_t key, const std::string &value)
    {
        std::vector<std::uint8_t> buf(valueBytes, 0);
        const std::size_t n =
            std::min<std::size_t>(value.size(), valueBytes - 1);
        std::copy_n(value.begin(), n, buf.begin());
        engine.writeBlock(key, buf);
    }

    std::string
    get(std::uint64_t key)
    {
        std::vector<std::uint8_t> buf;
        engine.readBlock(key, buf);
        return std::string(reinterpret_cast<const char *>(buf.data()));
    }

  private:
    oram::OramEngine &engine;
    std::uint64_t valueBytes;
};

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("oblivious_kv",
                   "Encrypted, access-pattern-hiding KV store demo");
    auto keys = args.addUint("keys", "key-space size", 1024);
    auto ring = args.addFlag("ring", "use RingORAM instead of "
                                     "PathORAM");
    auto bulk = args.addUint(
        "bulk",
        "after the session, obliviously scan this many random keys "
        "through a look-ahead LAORAM pipeline (0 = skip)",
        0);
    auto prepThreads = args.addUint(
        "prep-threads",
        "preprocessor threads for the --bulk pipeline (results are "
        "byte-identical for any value)",
        2);
    const auto storageArgs =
        storage::addStorageArgs(args, "oblivious_kv.tree");
    auto cacheMb = args.addUint(
        "cache-mb",
        "trusted-client hot-row cache capacity in MiB (0 = disabled)", 0);
    const auto obsArgs = obs::addObsArgs(args);
    args.parse(argc, argv);

    // Activated before any ORAM traffic; the destructor (after every
    // engine below is gone, so recorders are quiesced) flushes the
    // metrics/trace outputs.
    const obs::ObsConfig obsCfg = obs::obsConfigFromArgs(obsArgs);
    obs::ObsSession obsSession(obsCfg);

    constexpr std::uint64_t kValueBytes = 48;

    oram::EngineConfig cfg;
    cfg.numBlocks = *keys;
    cfg.blockBytes = 64;
    cfg.payloadBytes = kValueBytes;
    cfg.encrypt = true;
    cfg.seed = 1337;
    cfg.storage =
        storage::storageConfigFromArgs(storageArgs, &cfg.checkpoint);

    // --restore requires --checkpoint-path, so this covers both flags.
    if (*ring && !cfg.checkpoint.path.empty())
        LAORAM_FATAL("--checkpoint-path and --restore need the PathORAM "
                     "engine: RingORAM cannot snapshot or restore its "
                     "trusted client state; drop --ring or the "
                     "checkpoint flags");

    // Only the PathORAM session engine can checkpoint.
    std::unique_ptr<oram::OramEngine> engine;
    oram::PathOram *pathOram = nullptr;
    if (*ring) {
        oram::RingOramConfig rcfg;
        rcfg.base = cfg;
        engine = std::make_unique<oram::RingOram>(rcfg);
    } else {
        auto p = std::make_unique<oram::PathOram>(cfg);
        pathOram = p.get();
        engine = std::move(p);
    }
    std::cout << "oblivious KV over " << engine->name() << ", " << *keys
              << " keys, ChaCha20 at rest, tree on "
              << storage::backendKindName(cfg.storage.kind) << "\n\n";

    ObliviousKv kv(*engine, kValueBytes);

    // A restored run proves durability before the session writes
    // anything: the value survives from the previous process's
    // checkpoint (tree file + trusted-state sidecar).
    if (cfg.checkpoint.restore) {
        std::cout << "restored trusted client state from "
                  << cfg.checkpoint.path << "\nget(7)  -> \""
                  << kv.get(7) << "\" (from the previous run)\n\n";
    }

    // A scripted session.
    kv.put(7, "the user watched: comedies");
    kv.put(42, "the user watched: politics");
    kv.put(7, "the user watched: comedies, superheroes");
    std::cout << "get(7)  -> \"" << kv.get(7) << "\"\n";
    std::cout << "get(42) -> \"" << kv.get(42) << "\"\n";
    std::cout << "get(99) -> \"" << kv.get(99)
              << "\" (never written: zeros)\n\n";

    // What did the adversary see? Only path-shaped traffic.
    engine->meter().printSummary(std::cout, "server view");
    std::cout << "\nSix logical operations became "
              << engine->meter().counters().blocksRead
              << " uniformly distributed block reads — the access "
                 "pattern reveals\nneither keys, nor values, nor "
                 "whether operations repeat (Section VI).\n";

    // Durable shutdown: snapshot the trusted client state next to the
    // persistent tree so a later --restore run resumes this store.
    if (!cfg.checkpoint.path.empty()) {
        pathOram->checkpointToFile(cfg.checkpoint.path);
        std::cout << "\ncheckpointed trusted client state to "
                  << cfg.checkpoint.path
                  << " (restore with --restore --storage-keep)\n";
    }

    // Optional bulk phase: a batch read-heavy workload (cache warmup,
    // export, audit scan) served through the look-ahead pipeline —
    // the same substrate that trains embedding tables. The
    // preprocessor pool plus the deterministic reorder stage keep the
    // served bytes identical for any --prep-threads value.
    if (*bulk > 0) {
        core::LaoramConfig lcfg;
        lcfg.base = cfg;
        // Separate, fresh store for the scan demo: the session engine
        // above owns the primary tree (and its backing file, if any)
        // and the checkpoint sidecar, so the scan engine neither
        // reopens a tree nor restores or writes a snapshot. An empty
        // path (DRAM, or a DRAM-backed remote node) stays empty — no
        // stray ".bulk" file.
        lcfg.base.checkpoint = storage::CheckpointConfig{};
        lcfg.base.storage.keepExisting = false;
        if (!lcfg.base.storage.path.empty())
            lcfg.base.storage.path += ".bulk";
        lcfg.superblockSize = 4;
        lcfg.lookaheadWindow = std::max<std::uint64_t>(*bulk / 8, 1);
        // Optional trusted-client hot-row cache: repeated keys in the
        // scan are served from client DRAM while the scheduled dummy
        // accesses keep the server-visible trace unchanged.
        lcfg.cache.capacityBytes = *cacheMb << 20;
        core::Laoram scanEngine(lcfg);

        Rng rng(4242);
        std::vector<oram::BlockId> scan;
        scan.reserve(*bulk);
        for (std::uint64_t i = 0; i < *bulk; ++i)
            scan.push_back(rng.nextBounded(*keys));

        core::PipelineConfig pipecfg;
        pipecfg.windowAccesses = lcfg.lookaheadWindow;
        pipecfg.prepThreads = std::max<std::uint64_t>(*prepThreads, 1);
        const auto rep =
            core::BatchPipeline(scanEngine, pipecfg).run(scan);

        std::cout << "\nbulk oblivious scan: " << *bulk
                  << " reads in " << rep.wallTotalNs / 1e6
                  << " ms wall (" << rep.prepThreads
                  << " prep threads, prep hidden "
                  << rep.measuredPrepHiddenFraction * 100.0
                  << "%, reorder stall "
                  << rep.wallReorderStallNs / 1e6 << " ms)\n";
        for (std::size_t t = 0; t < rep.prepThreadUtilization.size();
             ++t) {
            std::cout << "  prep thread " << t << ": "
                      << rep.prepThreadWindows[t] << " windows, "
                      << rep.prepThreadUtilization[t] * 100.0
                      << "% busy\n";
        }
        if (lcfg.cache.enabled()) {
            std::cout << "  hot cache: " << rep.cache.hits
                      << " hits / " << rep.cache.misses
                      << " misses (hit rate "
                      << rep.cache.hitRate() * 100.0 << "%), "
                      << rep.cache.evictions << " evictions — the "
                      << "server-visible trace is unchanged\n";
        }
        if (!obsCfg.reportJson.empty()) {
            const mem::TrafficCounters traffic =
                scanEngine.meter().counters();
            obs::writeRunReportJson(obsCfg.reportJson, rep, &traffic);
        }
    } else if (!obsCfg.reportJson.empty()) {
        // No pipeline ran; the report still carries the session
        // engine's traffic so the adversary-view numbers are scripted.
        const mem::TrafficCounters traffic =
            engine->meter().counters();
        obs::writeRunReportJson(obsCfg.reportJson,
                                core::PipelineReport{}, &traffic);
    }
    return 0;
}
