/**
 * @file
 * End-to-end pipeline test: embedding rows live inside (encrypted)
 * LAORAM payloads, training happens through the oblivious access
 * path, and the result matches an in-the-clear shadow run.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "core/laoram_client.hh"
#include "core/pipeline.hh"
#include "oram/path_oram.hh"
#include "train/embedding_table.hh"
#include "train/toy_model.hh"
#include "util/rng.hh"
#include "workload/kaggle_synth.hh"

namespace laoram {
namespace {

using oram::BlockId;

constexpr std::uint64_t kRows = 64;
constexpr std::uint64_t kDim = 8;
constexpr std::uint64_t kRowBytes = kDim * sizeof(float);

core::LaoramConfig
oramConfig(bool encrypt)
{
    core::LaoramConfig cfg;
    cfg.base.numBlocks = kRows;
    cfg.base.blockBytes = 128;
    cfg.base.payloadBytes = kRowBytes;
    cfg.base.encrypt = encrypt;
    cfg.base.seed = 99;
    cfg.superblockSize = 4;
    return cfg;
}

/** Load every row of @p table into the ORAM as block payloads. */
void
loadTable(core::Laoram &oram, const train::EmbeddingTable &table)
{
    std::vector<std::uint8_t> buf;
    for (std::uint64_t r = 0; r < table.rows(); ++r) {
        table.serializeRow(r, buf);
        oram.writeBlock(r, buf);
    }
}

TEST(EndToEnd, ObliviousTrainingMatchesShadowRun)
{
    // Shadow: plain in-memory table updated by exactly the same rule.
    train::EmbeddingTable shadow(kRows, kDim, 7);
    train::EmbeddingTable initial(kRows, kDim, 7);

    core::Laoram oram(oramConfig(/*encrypt=*/true));
    loadTable(oram, initial);

    // Update rule: add 0.25 to every component, once per bin touch.
    std::map<BlockId, int> touches;
    oram.setTouchCallback(
        [&](BlockId id, std::vector<std::uint8_t> &payload) {
            ASSERT_EQ(payload.size(), kRowBytes);
            float vals[kDim];
            std::memcpy(vals, payload.data(), kRowBytes);
            for (auto &v : vals)
                v += 0.25f;
            std::memcpy(payload.data(), vals, kRowBytes);
            ++touches[id];
        });

    workload::KaggleParams kp;
    kp.numBlocks = kRows;
    kp.accesses = 300;
    kp.hotSetSize = 8;
    kp.seed = 3;
    const auto trace = workload::makeKaggleTrace(kp).accesses;
    oram.runTrace(trace);
    oram.setTouchCallback(nullptr);

    // Apply the same number of updates to the shadow.
    for (const auto &[id, n] : touches) {
        auto row = shadow.row(id);
        for (auto &v : row)
            v += 0.25f * static_cast<float>(n);
    }

    // Every row read back through the oblivious path must match.
    std::vector<std::uint8_t> buf;
    for (std::uint64_t r = 0; r < kRows; ++r) {
        oram.readBlock(r, buf);
        float vals[kDim];
        std::memcpy(vals, buf.data(), kRowBytes);
        for (std::uint64_t i = 0; i < kDim; ++i)
            EXPECT_FLOAT_EQ(vals[i], shadow.row(r)[i])
                << "row " << r << " dim " << i;
    }
}

TEST(EndToEnd, LossDecreasesThroughObliviousStorage)
{
    // A real (tiny) training loop where the *only* copy of the
    // embedding table lives inside PathORAM: gather rows via oblivious
    // reads, compute gradients, scatter updates via oblivious writes.
    train::EmbeddingTable init(kRows, kDim, 11);
    train::ToyInteractionModel model(kDim, 13);

    oram::EngineConfig cfg = oramConfig(false).base;
    oram::PathOram storage(cfg);
    {
        std::vector<std::uint8_t> buf;
        for (std::uint64_t r = 0; r < kRows; ++r) {
            init.serializeRow(r, buf);
            storage.writeBlock(r, buf);
        }
    }

    // Synthetic separable labels: rows < kRows/2 -> label 1.
    Rng rng(17);
    auto run_epoch = [&]() {
        double loss_sum = 0;
        int samples = 0;
        for (int s = 0; s < 64; ++s) {
            const BlockId row = rng.nextBounded(kRows);
            const float label = row < kRows / 2 ? 1.0f : 0.0f;

            std::vector<std::uint8_t> buf;
            storage.readBlock(row, buf);
            std::vector<float> vals(kDim);
            std::memcpy(vals.data(), buf.data(), kRowBytes);

            const auto res = model.step({vals}, label);
            loss_sum += res.loss;
            ++samples;

            for (std::uint64_t i = 0; i < kDim; ++i)
                vals[i] -= 0.3f * res.rowGrads[0][i];
            std::memcpy(buf.data(), vals.data(), kRowBytes);
            storage.writeBlock(row, buf);
            model.applyTopGradient(0.3f);
        }
        return loss_sum / samples;
    };

    const double first = run_epoch();
    double last = first;
    for (int e = 0; e < 30; ++e)
        last = run_epoch();
    EXPECT_LT(last, first * 0.7)
        << "training through the ORAM should reduce loss";
}

TEST(EndToEnd, PipelineDrivesTrainingWindows)
{
    core::Laoram oram(oramConfig(false));
    int touched = 0;
    oram.setTouchCallback(
        [&](BlockId, std::vector<std::uint8_t> &) { ++touched; });

    core::PipelineConfig pc;
    pc.windowAccesses = 64;
    core::BatchPipeline pipe(oram, pc);

    workload::KaggleParams kp;
    kp.numBlocks = kRows;
    kp.accesses = 512;
    kp.hotSetSize = 8;
    kp.seed = 5;
    const auto rep = pipe.run(workload::makeKaggleTrace(kp).accesses);

    EXPECT_EQ(rep.windows, 8u);
    EXPECT_GT(touched, 0);
}

} // namespace
} // namespace laoram
