/**
 * @file
 * ChaCha20 validated against the RFC 8439 reference vectors, and every
 * xorRecords lane kernel against the scalar keystream.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "crypto/chacha20.hh"
#include "crypto/chacha20_detail.hh"

namespace laoram::crypto {
namespace {

Key256
rfcKey()
{
    // 00 01 02 ... 1f
    Key256 key{};
    for (int i = 0; i < 32; ++i)
        key[i] = static_cast<std::uint8_t>(i);
    return key;
}

// RFC 8439 §2.3.2: key 00..1f, nonce 000000090000004a00000000,
// counter 1, serialized block.
const std::uint8_t kRfcBlockNonce[12] = {0, 0, 0, 0x09, 0, 0, 0, 0x4a,
                                         0, 0, 0, 0};
const std::uint8_t kRfcBlock[64] = {
    0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15,
    0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20, 0x71, 0xc4,
    0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0, 0x68, 0x03,
    0x04, 0x22, 0xaa, 0x9a, 0xc3, 0xd4, 0x6c, 0x4e,
    0xd2, 0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09,
    0x14, 0xc2, 0xd7, 0x05, 0xd9, 0x8b, 0x02, 0xa2,
    0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e, 0xb9,
    0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50, 0x3c, 0x4e,
};

// RFC 8439 §2.4.2: the "Ladies and Gentlemen..." plaintext under key
// 00..1f, nonce 000000000000004a00000000, counter 1.
const std::uint8_t kRfcStreamNonce[12] = {0, 0, 0, 0, 0, 0, 0, 0x4a,
                                          0, 0, 0, 0};
const char kRfcPlaintext[] =
    "Ladies and Gentlemen of the class of '99: If I could offer you "
    "only one tip for the future, sunscreen would be it.";
const std::uint8_t kRfcCiphertext[114] = {
    0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80, 0x41, 0xba, 0x07,
    0x28, 0xdd, 0x0d, 0x69, 0x81, 0xe9, 0x7e, 0x7a, 0xec, 0x1d, 0x43,
    0x60, 0xc2, 0x0a, 0x27, 0xaf, 0xcc, 0xfd, 0x9f, 0xae, 0x0b, 0xf9,
    0x1b, 0x65, 0xc5, 0x52, 0x47, 0x33, 0xab, 0x8f, 0x59, 0x3d, 0xab,
    0xcd, 0x62, 0xb3, 0x57, 0x16, 0x39, 0xd6, 0x24, 0xe6, 0x51, 0x52,
    0xab, 0x8f, 0x53, 0x0c, 0x35, 0x9f, 0x08, 0x61, 0xd8, 0x07, 0xca,
    0x0d, 0xbf, 0x50, 0x0d, 0x6a, 0x61, 0x56, 0xa3, 0x8e, 0x08, 0x8a,
    0x22, 0xb6, 0x5e, 0x52, 0xbc, 0x51, 0x4d, 0x16, 0xcc, 0xf8, 0x06,
    0x81, 0x8c, 0xe9, 0x1a, 0xb7, 0x79, 0x37, 0x36, 0x5a, 0xf9, 0x0b,
    0xbf, 0x74, 0xa3, 0x5b, 0xe6, 0xb4, 0x0b, 0x8e, 0xed, 0xf2, 0x78,
    0x5e, 0x42, 0x87, 0x4d,
};

Nonce96
toNonce(const std::uint8_t (&bytes)[12])
{
    Nonce96 nonce{};
    std::memcpy(nonce.data(), bytes, nonce.size());
    return nonce;
}

using RecordsFn = void (*)(const Key256 &, const Nonce96 *, std::uint8_t *,
                           std::size_t, std::size_t);

/**
 * Push both RFC vectors through @p xorRecords. Both start at counter
 * 1 while xorRecords starts at 0, so each record carries one leading
 * zero block. Each vector runs as 37 identical records, so every lane
 * position of every kernel width (and a ragged last batch) is checked.
 */
void
expectRfcVectors(RecordsFn xorRecords)
{
    constexpr std::size_t kCopies = 37;
    const Key256 key = rfcKey();

    constexpr std::size_t blockRec = 128;
    std::vector<Nonce96> nonces(kCopies, toNonce(kRfcBlockNonce));
    std::vector<std::uint8_t> recs(kCopies * blockRec, 0);
    xorRecords(key, nonces.data(), recs.data(), blockRec, kCopies);
    for (std::size_t i = 0; i < kCopies; ++i)
        EXPECT_EQ(std::memcmp(recs.data() + i * blockRec + 64, kRfcBlock,
                              64),
                  0)
            << "§2.3.2 block, record " << i;

    const std::size_t textLen = std::strlen(kRfcPlaintext);
    ASSERT_EQ(textLen, sizeof(kRfcCiphertext));
    const std::size_t streamRec = 64 + textLen;
    nonces.assign(kCopies, toNonce(kRfcStreamNonce));
    recs.assign(kCopies * streamRec, 0);
    for (std::size_t i = 0; i < kCopies; ++i)
        std::memcpy(recs.data() + i * streamRec + 64, kRfcPlaintext,
                    textLen);
    xorRecords(key, nonces.data(), recs.data(), streamRec, kCopies);
    for (std::size_t i = 0; i < kCopies; ++i)
        EXPECT_EQ(std::memcmp(recs.data() + i * streamRec + 64,
                              kRfcCiphertext, textLen),
                  0)
            << "§2.4.2 ciphertext, record " << i;
}

TEST(ChaCha20, Rfc8439BlockVector)
{
    std::uint8_t out[64];
    ChaCha20::block(rfcKey(), toNonce(kRfcBlockNonce), 1, out);
    EXPECT_EQ(std::memcmp(out, kRfcBlock, 64), 0);
}

TEST(ChaCha20, Rfc8439EncryptionVector)
{
    std::vector<std::uint8_t> buf(kRfcPlaintext,
                                  kRfcPlaintext + std::strlen(kRfcPlaintext));
    ChaCha20::xorStream(rfcKey(), toNonce(kRfcStreamNonce), 1, buf.data(),
                        buf.size());
    ASSERT_EQ(buf.size(), sizeof(kRfcCiphertext));
    EXPECT_EQ(std::memcmp(buf.data(), kRfcCiphertext, buf.size()), 0);
}

TEST(ChaCha20, Rfc8439VectorsThroughXorRecords)
{
    expectRfcVectors(ChaCha20::xorRecords);
}

TEST(ChaCha20, XorStreamRoundTrips)
{
    const Key256 key = rfcKey();
    Nonce96 nonce{};
    nonce[0] = 0x42;
    std::vector<std::uint8_t> data(333);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 7 + 1);
    const std::vector<std::uint8_t> original = data;

    ChaCha20::xorStream(key, nonce, 0, data.data(), data.size());
    EXPECT_NE(data, original);
    ChaCha20::xorStream(key, nonce, 0, data.data(), data.size());
    EXPECT_EQ(data, original);
}

TEST(ChaCha20, DifferentNoncesDiverge)
{
    const Key256 key = rfcKey();
    Nonce96 n1{}, n2{};
    n2[11] = 1;
    std::uint8_t a[64], b[64];
    ChaCha20::block(key, n1, 0, a);
    ChaCha20::block(key, n2, 0, b);
    EXPECT_NE(std::memcmp(a, b, 64), 0);
}

TEST(ChaCha20, DifferentCountersDiverge)
{
    const Key256 key = rfcKey();
    Nonce96 nonce{};
    std::uint8_t a[64], b[64];
    ChaCha20::block(key, nonce, 0, a);
    ChaCha20::block(key, nonce, 1, b);
    EXPECT_NE(std::memcmp(a, b, 64), 0);
}

TEST(ChaCha20, PartialBlockLengths)
{
    const Key256 key = rfcKey();
    Nonce96 nonce{};
    for (std::size_t len : {0UL, 1UL, 63UL, 64UL, 65UL, 128UL, 200UL}) {
        std::vector<std::uint8_t> data(len, 0xAB);
        const auto original = data;
        ChaCha20::xorStream(key, nonce, 5, data.data(), data.size());
        ChaCha20::xorStream(key, nonce, 5, data.data(), data.size());
        EXPECT_EQ(data, original) << "len=" << len;
    }
}

TEST(ChaCha20, XorRecordsOfNothingTouchesNothing)
{
    std::uint8_t guard[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    const Nonce96 nonce{};
    ChaCha20::xorRecords(rfcKey(), &nonce, guard, 8, 0);
    ChaCha20::xorRecords(rfcKey(), &nonce, guard, 0, 1);
    const std::uint8_t same[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    EXPECT_EQ(std::memcmp(guard, same, 8), 0);
}

TEST(ChaCha20Dispatch, PicksWidestSupportedKernel)
{
    std::size_t count = 0;
    const detail::RecordsKernel *kernels = detail::recordsKernels(count);
    ASSERT_GE(count, 1u);
    EXPECT_STREQ(kernels[0].name, "scalar");
    std::string compiled, supported;
    const detail::RecordsKernel *widest = nullptr;
    for (std::size_t i = 0; i < count; ++i) {
        compiled += std::string(" ") + kernels[i].name;
        if (kernels[i].supported()) {
            supported += std::string(" ") + kernels[i].name;
            widest = &kernels[i];
        }
    }
    // Printed so a CI log names the kernel this runner serves with: a
    // runner that silently falls back to scalar shows up here.
    std::cout << "ChaCha20 dispatch: " << detail::selectedKernel().name
              << " (compiled:" << compiled << "; supported:" << supported
              << ")" << std::endl;
    ASSERT_NE(widest, nullptr);
    EXPECT_EQ(&detail::selectedKernel(), widest);
}

/** Runs one named kernel; skips where it is not built or not runnable. */
class ChaCha20Kernel : public ::testing::TestWithParam<std::string>
{
  protected:
    void
    SetUp() override
    {
        std::size_t count = 0;
        const detail::RecordsKernel *kernels =
            detail::recordsKernels(count);
        for (std::size_t i = 0; i < count; ++i) {
            if (GetParam() == kernels[i].name)
                kernel = &kernels[i];
        }
        if (kernel == nullptr)
            GTEST_SKIP() << GetParam()
                         << " kernel is x86-64 only; not in this build";
        if (!kernel->supported())
            GTEST_SKIP() << "this CPU does not support " << GetParam();
    }

    const detail::RecordsKernel *kernel = nullptr;
};

TEST_P(ChaCha20Kernel, Rfc8439Vectors)
{
    expectRfcVectors(kernel->xorRecords);
}

TEST_P(ChaCha20Kernel, MatchesScalarKeystream)
{
    // Every record length class the lane kernels treat differently
    // (empty, sub-word, sub-vector, whole and ragged 64-B blocks, the
    // 80-B and 144-B records of the benchmark trees, up to 1 KiB),
    // each at 1-40 records: ragged batches in all three widths.
    const std::size_t lengths[] = {0,   1,   3,   4,   7,   8,   15,
                                   16,  17,  31,  32,  33,  48,  63,
                                   64,  65,  80,  96,  127, 128, 129,
                                   144, 191, 192, 193, 255, 256, 257,
                                   383, 400, 511, 512, 513, 700, 767,
                                   768, 769, 1000, 1023, 1024};
    constexpr std::size_t kGuard = 13; // odd: records start unaligned
    std::mt19937_64 rng(20260117);
    Key256 key{};
    for (auto &b : key)
        b = static_cast<std::uint8_t>(rng());
    for (std::size_t len : lengths) {
        for (std::size_t n = 1; n <= 40; ++n) {
            std::vector<Nonce96> nonces(n);
            for (Nonce96 &nonce : nonces)
                for (auto &b : nonce)
                    b = static_cast<std::uint8_t>(rng());
            std::vector<std::uint8_t> want(n * len + 2 * kGuard);
            for (auto &b : want)
                b = static_cast<std::uint8_t>(rng());
            std::vector<std::uint8_t> got = want;

            for (std::size_t i = 0; i < n; ++i)
                ChaCha20::xorStream(key, nonces[i], 0,
                                    want.data() + kGuard + i * len, len);
            kernel->xorRecords(key, nonces.data(), got.data() + kGuard,
                               len, n);
            ASSERT_EQ(got, want) << GetParam() << ": " << n
                                 << " records of " << len << " B";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Isa, ChaCha20Kernel,
    ::testing::Values("scalar", "sse2", "avx2", "avx512"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
} // namespace laoram::crypto
