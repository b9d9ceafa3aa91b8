/**
 * @file
 * Training-substrate tests: embedding table serialisation, row SGD
 * mechanics, and that the toy model actually learns.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "train/embedding_table.hh"
#include "train/toy_model.hh"
#include "util/rng.hh"

namespace laoram::train {
namespace {

TEST(EmbeddingTable, ShapeAndInit)
{
    EmbeddingTable t(100, 32, 1);
    EXPECT_EQ(t.rows(), 100u);
    EXPECT_EQ(t.dim(), 32u);
    EXPECT_EQ(t.rowBytes(), 128u); // the paper's DLRM row size
    // Init bounded by 1/sqrt(dim).
    for (float v : t.row(0))
        EXPECT_LE(std::abs(v), 1.0f / std::sqrt(32.0f) + 1e-6f);
}

TEST(EmbeddingTable, DeterministicInit)
{
    EmbeddingTable a(10, 8, 7), b(10, 8, 7), c(10, 8, 8);
    for (int r = 0; r < 10; ++r) {
        for (int i = 0; i < 8; ++i)
            EXPECT_EQ(a.row(r)[i], b.row(r)[i]);
    }
    bool differ = false;
    for (int i = 0; i < 8; ++i)
        differ |= (a.row(0)[i] != c.row(0)[i]);
    EXPECT_TRUE(differ);
}

TEST(EmbeddingTable, SerializeRoundTrip)
{
    EmbeddingTable t(4, 16, 2);
    std::vector<std::uint8_t> buf;
    t.serializeRow(2, buf);
    EXPECT_EQ(buf.size(), 64u);

    EmbeddingTable other(4, 16, 3);
    other.deserializeRow(0, buf);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(other.row(0)[i], t.row(2)[i]);
}

TEST(EmbeddingTable, ApplyGradientMovesWeights)
{
    EmbeddingTable t(2, 4, 4);
    const float before = t.row(1)[0];
    std::vector<float> grad{1.0f, 0.0f, 0.0f, 0.0f};
    t.applyGradient(1, grad, 0.5f);
    EXPECT_FLOAT_EQ(t.row(1)[0], before - 0.5f);
}

TEST(EmbeddingTable, RowNorm)
{
    EmbeddingTable t(1, 2, 5);
    auto r = t.row(0);
    r[0] = 3.0f;
    r[1] = 4.0f;
    EXPECT_DOUBLE_EQ(t.rowNormSq(0), 25.0);
}

TEST(ToyModel, PredictsInUnitInterval)
{
    ToyInteractionModel model(8, 1);
    std::vector<std::vector<float>> rows{std::vector<float>(8, 0.3f)};
    const auto res = model.step(rows, 1.0f);
    EXPECT_GT(res.prediction, 0.0f);
    EXPECT_LT(res.prediction, 1.0f);
    EXPECT_GT(res.loss, 0.0f);
    ASSERT_EQ(res.rowGrads.size(), 1u);
    EXPECT_EQ(res.rowGrads[0].size(), 8u);
}

TEST(ToyModel, LearnsSeparableTask)
{
    // Two "users": one always labelled 1 via row A, one labelled 0 via
    // row B. Training embeddings + top weight must drive the loss
    // down.
    constexpr std::uint64_t kDim = 16;
    ToyInteractionModel model(kDim, 2);
    EmbeddingTable table(2, kDim, 3);
    constexpr float kLr = 0.5f;

    auto run_epoch = [&]() {
        double loss = 0;
        for (int s = 0; s < 2; ++s) {
            const std::uint64_t row = s;
            const float label = s == 0 ? 1.0f : 0.0f;
            std::vector<std::vector<float>> rows{
                std::vector<float>(table.row(row).begin(),
                                   table.row(row).end())};
            const auto res = model.step(rows, label);
            loss += res.loss;
            table.applyGradient(row, res.rowGrads[0], kLr);
            model.applyTopGradient(kLr);
        }
        return loss / 2;
    };

    const double first = run_epoch();
    double last = first;
    for (int e = 0; e < 200; ++e)
        last = run_epoch();
    EXPECT_LT(last, first * 0.5)
        << "loss should halve on a separable toy task";
    EXPECT_LT(last, 0.2);
}

TEST(ToyModel, GradientsPointDownhill)
{
    ToyInteractionModel model(4, 5);
    std::vector<std::vector<float>> rows{{0.5f, -0.2f, 0.1f, 0.9f}};
    const auto r1 = model.step(rows, 1.0f);
    // Apply the row gradient manually and re-evaluate: loss must drop.
    auto moved = rows;
    for (int i = 0; i < 4; ++i)
        moved[0][i] -= 0.5f * r1.rowGrads[0][i];
    const auto r2 = model.step(moved, 1.0f);
    EXPECT_LT(r2.loss, r1.loss);
}

} // namespace
} // namespace laoram::train
