/**
 * @file
 * DLRM-style recommendation training with the embedding table held
 * obliviously in LAORAM — the paper's headline scenario (§VII).
 *
 * The flow mirrors Fig. 5's architecture:
 *   - server storage: (simulated) CPU DRAM holding the encrypted
 *     embedding tree,
 *   - preprocessor: scans upcoming batches into superblock bins,
 *   - trainer: pulls bins through the oblivious path, runs SGD on a
 *     toy click-prediction model, and writes updated rows back.
 *
 * Labels are synthetic but separable by construction (rows in the hot
 * band lean positive), so the loss visibly decreases — demonstrating
 * that the oblivious storage is functionally transparent to training.
 */

#include <algorithm>
#include <cstring>
#include <iostream>
#include <vector>

#include "core/laoram_client.hh"
#include "core/pipeline.hh"
#include "oram/path_oram.hh"
#include "train/embedding_table.hh"
#include "train/toy_model.hh"
#include "util/cli.hh"
#include "util/rng.hh"
#include "workload/kaggle_synth.hh"

using namespace laoram;

namespace {

constexpr std::uint64_t kDim = 32; // 128-byte rows, like the paper

float
labelFor(oram::BlockId row, std::uint64_t hot_set)
{
    // Hot-band rows correlate with clicks; cold rows do not.
    return row < hot_set ? 1.0f : 0.0f;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("dlrm_kaggle",
                   "DLRM-like training over a LAORAM-protected "
                   "embedding table");
    auto rows = args.addUint("rows", "embedding rows", 8192);
    auto samples = args.addUint("samples", "training samples/epoch",
                                8192);
    auto epochs = args.addUint("epochs", "training epochs", 3);
    auto superblock = args.addUint("superblock", "LAORAM S", 4);
    auto lr = args.addDouble("lr", "learning rate", 0.2);
    args.parse(argc, argv);

    std::cout << "DLRM + Kaggle-like trace through LAORAM (fat tree, "
                 "S=" << *superblock << ")\n\n";

    // --- Build the protected embedding table. ---
    train::EmbeddingTable table(*rows, kDim, /*seed=*/1);
    core::LaoramConfig lcfg;
    lcfg.base.numBlocks = *rows;
    lcfg.base.blockBytes = 128;
    lcfg.base.payloadBytes = table.rowBytes();
    lcfg.base.profile = oram::BucketProfile::fat(4);
    lcfg.base.encrypt = true; // rows are encrypted at rest
    lcfg.base.seed = 2;
    lcfg.superblockSize = *superblock;
    core::Laoram oram(lcfg);

    std::cout << "loading " << *rows
              << " rows into the ORAM tree ("
              << oram.geometry().serverBytes() / (1 << 20)
              << " MiB logical server footprint)...\n";
    {
        std::vector<std::uint8_t> buf;
        for (std::uint64_t r = 0; r < *rows; ++r) {
            table.serializeRow(r, buf);
            oram.writeBlock(r, buf);
        }
    }

    // --- Training setup. ---
    train::ToyInteractionModel model(kDim, /*seed=*/3);
    workload::KaggleParams kp;
    kp.numBlocks = *rows;
    kp.accesses = *samples;
    kp.hotSetSize = std::max<std::uint64_t>(*rows / 32, 16);
    kp.hotProbability = 0.3;

    // The touch callback is the "trainer GPU": it sees each fetched
    // row exactly once per bin, runs one SGD step, and leaves the
    // updated row in the (stash-resident) payload.
    double epoch_loss = 0.0;
    std::uint64_t epoch_samples = 0;
    oram.setTouchCallback([&](oram::BlockId id,
                              std::vector<std::uint8_t> &payload) {
        std::vector<float> row(kDim);
        std::memcpy(row.data(), payload.data(), payload.size());

        const auto res = model.step({row}, labelFor(id, kp.hotSetSize));
        epoch_loss += res.loss;
        ++epoch_samples;

        for (std::uint64_t i = 0; i < kDim; ++i)
            row[i] -= static_cast<float>(*lr) * res.rowGrads[0][i];
        model.applyTopGradient(static_cast<float>(*lr));
        std::memcpy(payload.data(), row.data(), payload.size());
    });

    // --- Train through the concurrent two-stage pipeline: the
    // preprocessor thread bins the next window of samples while the
    // serving thread trains the current one, epoch by epoch. ---
    core::PipelineConfig pipecfg;
    pipecfg.windowAccesses = std::max<std::uint64_t>(*samples / 4, 1);

    const auto t0 = oram.meter().clock().nanoseconds();
    double hidden_min = 1.0;
    for (std::uint64_t e = 0; e < *epochs; ++e) {
        kp.seed = 10 + e; // reshuffled epoch
        const auto trace = workload::makeKaggleTrace(kp).accesses;
        epoch_loss = 0.0;
        epoch_samples = 0;
        const auto rep = core::BatchPipeline(oram, pipecfg).run(trace);
        hidden_min =
            std::min(hidden_min, rep.measuredPrepHiddenFraction);
        std::cout << "epoch " << e << ": mean loss "
                  << epoch_loss / static_cast<double>(epoch_samples)
                  << "  (" << epoch_samples
                  << " distinct row touches)\n";
    }
    oram.setTouchCallback(nullptr);
    if (*epochs > 0) {
        std::cout << "measured preprocessing overlap: >= "
                  << hidden_min * 100.0 << "% hidden per epoch\n";
    }

    // --- Report the oblivious-access cost. ---
    const auto &c = oram.meter().counters();
    std::cout << "\nORAM traffic: pathReads/access="
              << c.pathReadsPerAccess()
              << " dummyReads/access=" << c.dummyReadsPerAccess()
              << " stashPeak=" << c.stashPeak << "\n"
              << "simulated oblivious-access time: "
              << (oram.meter().clock().nanoseconds() - t0) / 1e6
              << " ms\n";

    // Baseline comparison on the final epoch's trace.
    kp.seed = 10 + *epochs - 1;
    const auto trace = workload::makeKaggleTrace(kp).accesses;
    oram::EngineConfig pcfg = lcfg.base;
    pcfg.payloadBytes = 0;
    pcfg.encrypt = false;
    pcfg.profile = oram::BucketProfile::uniform(4);
    oram::PathOram baseline(pcfg);
    baseline.runTrace(trace);

    core::LaoramConfig l2 = lcfg;
    l2.base.payloadBytes = 0;
    l2.base.encrypt = false;
    core::Laoram warm(l2);
    auto two_epochs = trace;
    two_epochs.insert(two_epochs.end(), trace.begin(), trace.end());
    warm.runTrace(two_epochs);

    const double per_access_base =
        baseline.meter().clock().nanoseconds()
        / static_cast<double>(trace.size());
    const double per_access_laoram =
        warm.meter().clock().nanoseconds()
        / static_cast<double>(two_epochs.size());
    std::cout << "speedup vs PathORAM (per access, warm): "
              << per_access_base / per_access_laoram << "x\n";
    return 0;
}
