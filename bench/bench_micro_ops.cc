/**
 * @file
 * Engine micro-throughput on google-benchmark: wall-clock logical
 * accesses/second of each engine across tree heights. This is
 * infrastructure benchmarking (host speed of the simulator itself),
 * not a paper figure — the paper metrics are simulated-time ratios,
 * which bench_fig7_speedups reports. BM_ChaCha20Records puts the
 * per-ISA speed of the record-encryption kernels next to them.
 */

#include <benchmark/benchmark.h>

#include <algorithm>

#include "common/harness.hh"
#include "core/pipeline.hh"
#include "crypto/chacha20_detail.hh"
#include "crypto/encryptor.hh"
#include "oram/path_oram.hh"
#include "oram/ring_oram.hh"
#include "oram/server_storage.hh"
#include "util/rng.hh"
#include "workload/kaggle_synth.hh"

using namespace laoram;

namespace {

using bench::randomTrace;

void
BM_PathOramAccess(benchmark::State &state)
{
    const std::uint64_t blocks = std::uint64_t{1}
        << static_cast<unsigned>(state.range(0));
    oram::EngineConfig cfg;
    cfg.numBlocks = blocks;
    cfg.blockBytes = 128;
    cfg.seed = 1;
    oram::PathOram engine(cfg);
    const auto trace = randomTrace(blocks, 1024, 2);
    std::size_t i = 0;
    for (auto _ : state) {
        engine.touch(trace[i++ & 1023]);
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_LaoramBinAccess(benchmark::State &state)
{
    const std::uint64_t blocks = std::uint64_t{1}
        << static_cast<unsigned>(state.range(0));
    core::LaoramConfig cfg;
    cfg.base.numBlocks = blocks;
    cfg.base.blockBytes = 128;
    cfg.base.seed = 1;
    cfg.superblockSize = 4;
    core::Laoram engine(cfg);

    core::Preprocessor prep(
        core::PreprocessorConfig{4, engine.geometry().numLeaves()}, 3);
    const auto trace = randomTrace(blocks, 4096, 4);
    const auto res = prep.run(trace);
    std::size_t i = 0;
    for (auto _ : state) {
        engine.accessBatch(&res.bins[i++ % res.bins.size()], 1);
    }
    // Each bin serves ~4 logical accesses.
    state.SetItemsProcessed(state.iterations() * 4);
}

void
BM_LaoramTrainingBatch(benchmark::State &state)
{
    // The training deployment's serve path at its shape: encrypted
    // 128-B rows in a fat(4) tree, S = 4, one union read and one
    // write-back per 16-access batch over a Kaggle-like trace. Unlike
    // BM_LaoramBinAccess it moves real payloads through the encrypted
    // path codec. Items are logical accesses. treetop:0 keeps every
    // level on the server, treetop:1 the default (top half of the
    // levels in client memory).
    const std::uint64_t rows = std::uint64_t{1}
        << static_cast<unsigned>(state.range(0));
    core::LaoramConfig cfg;
    cfg.base.numBlocks = rows;
    cfg.base.blockBytes = 128;
    cfg.base.payloadBytes = 128;
    cfg.base.encrypt = true;
    cfg.base.profile = oram::BucketProfile::fat(4);
    cfg.base.seed = 1;
    if (state.range(1) == 0)
        cfg.base.treetopLevels = 0;
    cfg.superblockSize = 4;
    cfg.batchAccesses = 16;
    core::Laoram engine(cfg);

    workload::KaggleParams kp;
    kp.numBlocks = rows;
    kp.accesses = 32768;
    kp.hotSetSize = std::min<std::uint64_t>(2048, rows / 4);
    kp.seed = 4;
    core::Preprocessor prep(
        core::PreprocessorConfig{4, engine.geometry().numLeaves()}, 3);
    const auto res = prep.run(workload::makeKaggleTrace(kp).accesses);

    // Group bins into training batches by raw access count, as the
    // engine's window loop does.
    struct Batch
    {
        std::size_t first, count;
        std::uint64_t raw;
    };
    std::vector<Batch> batches;
    Batch cur{0, 0, 0};
    for (std::size_t i = 0; i < res.bins.size(); ++i) {
        ++cur.count;
        cur.raw += res.bins[i].rawAccesses;
        if (cur.raw >= cfg.batchAccesses) {
            batches.push_back(cur);
            cur = Batch{i + 1, 0, 0};
        }
    }
    if (cur.count > 0)
        batches.push_back(cur);

    // One untimed lap fills the tree with real rows.
    for (const Batch &b : batches)
        engine.accessBatch(res.bins.data() + b.first, b.count);
    std::size_t i = 0;
    std::uint64_t accesses = 0;
    for (auto _ : state) {
        const Batch &b = batches[i++ % batches.size()];
        engine.accessBatch(res.bins.data() + b.first, b.count);
        accesses += b.raw;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(accesses));
}

void
BM_RingOramAccess(benchmark::State &state)
{
    const std::uint64_t blocks = std::uint64_t{1}
        << static_cast<unsigned>(state.range(0));
    oram::RingOramConfig cfg;
    cfg.base.numBlocks = blocks;
    cfg.base.blockBytes = 128;
    cfg.base.seed = 1;
    oram::RingOram engine(cfg);
    const auto trace = randomTrace(blocks, 1024, 5);
    std::size_t i = 0;
    for (auto _ : state) {
        engine.touch(trace[i++ & 1023]);
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_PreprocessorScan(benchmark::State &state)
{
    const std::uint64_t blocks = 1 << 18;
    core::Preprocessor prep(core::PreprocessorConfig{4, blocks}, 7);
    const auto trace = randomTrace(
        blocks, static_cast<std::uint64_t>(state.range(0)), 6);
    for (auto _ : state) {
        benchmark::DoNotOptimize(prep.run(trace));
    }
    state.SetItemsProcessed(state.iterations() * trace.size());
}

void
BM_StorageVectoredPathRead(benchmark::State &state)
{
    // One whole root-to-leaf path per iteration, like a one-leaf
    // PathIo::readPaths, on a 2^16-block uniform(4) tree.
    //  - sink: 1 attaches a trivial access sink, so the no-sink fast
    //    path (ONE branch per path for the audit tap, not one per
    //    slot) and the probe path are directly comparable.
    //  - encrypt: 0 stores bare 16-B headers in plaintext; 1 stores
    //    encrypted 144-B records (128-B payload, train-kaggle's size).
    //  - real_pct: the share of the path's slots holding a real
    //    record. Only those are decrypted, so with encryption the
    //    read's cost follows it (train-kaggle's paths are ~13% real).
    const bool encrypt = state.range(1) != 0;
    const auto realPct = static_cast<std::uint64_t>(state.range(2));
    const oram::TreeGeometry geom(std::uint64_t{1} << 16, 128,
                                  oram::BucketProfile::uniform(4), 0);
    oram::ServerStorage storage(geom, encrypt ? 128 : 0, encrypt,
                                /*keySeed=*/11);

    std::vector<std::uint64_t> slots;
    for (unsigned level = 0; level < geom.numLevels(); ++level) {
        const auto node = geom.pathNode(/*leaf=*/3, level);
        const std::uint64_t base = geom.nodeSlotBase(node);
        for (std::uint64_t s = 0; s < geom.bucketSize(level); ++s)
            slots.push_back(base + s);
    }
    // Real records spread evenly along the path.
    const std::vector<std::uint8_t> payload(storage.payloadBytes(), 0x5a);
    for (std::uint64_t i = 0; i < slots.size(); ++i) {
        if ((i + 1) * realPct / 100 > i * realPct / 100)
            storage.writeSlot(slots[i], i, 3, payload.data(),
                              payload.size());
    }

    std::uint64_t sunk = 0;
    if (state.range(0) == 1) {
        storage.setAccessSink(
            [&sunk](std::uint64_t, bool) { ++sunk; });
    }
    std::vector<oram::StoredBlock> out;
    for (auto _ : state) {
        storage.readSlots(slots.data(), slots.size(), out);
        benchmark::DoNotOptimize(out);
    }
    benchmark::DoNotOptimize(sunk);
    state.SetItemsProcessed(state.iterations() * slots.size());
}

void
BM_ChaCha20Records(benchmark::State &state)
{
    // One xorRecords kernel over one train-kaggle-sized path union:
    // 270 records of range(1) bytes (80 = 64-B payload, 144 = 128-B
    // payload, each plus the 16-B id/leaf header), each under its own
    // nonce. range(0) indexes detail::recordsKernels().
    std::size_t count = 0;
    const crypto::detail::RecordsKernel *kernels =
        crypto::detail::recordsKernels(count);
    const auto k = static_cast<std::size_t>(state.range(0));
    if (k >= count || !kernels[k].supported()) {
        state.SkipWithError("kernel not available on this build/CPU");
        return;
    }
    state.SetLabel(kernels[k].name);
    constexpr std::size_t kRecords = 270;
    const auto recordBytes = static_cast<std::size_t>(state.range(1));
    const crypto::Key256 key = crypto::Encryptor::deriveKey(5);
    std::vector<crypto::Nonce96> nonces(kRecords);
    for (std::size_t i = 0; i < kRecords; ++i)
        nonces[i][0] = static_cast<std::uint8_t>(i);
    std::vector<std::uint8_t> records(kRecords * recordBytes, 0x5a);
    for (auto _ : state) {
        kernels[k].xorRecords(key, nonces.data(), records.data(),
                              recordBytes, kRecords);
        benchmark::DoNotOptimize(records.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * kRecords);
    state.SetBytesProcessed(state.iterations() * kRecords * recordBytes);
}

void
BM_PipelineTrace(benchmark::State &state)
{
    // Full two-stage pipeline over a fixed trace; range(0) selects
    // the mode (0 = Simulated: stage 1 inline on the serving thread,
    // 1 = Concurrent: a prep thread + reorder window), so the delta
    // is what the thread and the queue cost or hide per access.
    const std::uint64_t blocks = 1 << 14;
    const auto trace = randomTrace(blocks, 1 << 14, 8);
    core::PipelineConfig pc;
    pc.windowAccesses = 2048;
    pc.mode = state.range(0) == 0 ? core::PipelineMode::Simulated
                                  : core::PipelineMode::Concurrent;
    for (auto _ : state) {
        core::LaoramConfig cfg;
        cfg.base.numBlocks = blocks;
        cfg.base.blockBytes = 128;
        cfg.base.seed = 9;
        cfg.superblockSize = 4;
        core::Laoram engine(cfg);
        core::BatchPipeline pipe(engine, pc);
        benchmark::DoNotOptimize(pipe.run(trace));
    }
    state.SetItemsProcessed(state.iterations() * trace.size());
}

} // namespace

BENCHMARK(BM_PathOramAccess)->Arg(12)->Arg(16)->Arg(18);
BENCHMARK(BM_LaoramBinAccess)->Arg(12)->Arg(16)->Arg(18);
BENCHMARK(BM_LaoramTrainingBatch)
    ->ArgsProduct({{16, 18}, {0, 1}})
    ->ArgNames({"log2_rows", "treetop"});
BENCHMARK(BM_RingOramAccess)->Arg(12)->Arg(16);
BENCHMARK(BM_PreprocessorScan)->Arg(4096)->Arg(65536);
BENCHMARK(BM_StorageVectoredPathRead)
    ->Args({0, 0, 0})
    ->Args({1, 0, 0})
    ->Args({0, 1, 0})
    ->Args({0, 1, 13})
    ->Args({0, 1, 50})
    ->Args({0, 1, 100})
    ->ArgNames({"sink", "encrypt", "real_pct"});
BENCHMARK(BM_ChaCha20Records)
    ->ArgsProduct({{0, 1, 2, 3}, {80, 144}})
    ->ArgNames({"kernel", "record_bytes"});
BENCHMARK(BM_PipelineTrace)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
