/**
 * @file
 * Unit tests for the slot encryptor (nonce/epoch management).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "crypto/encryptor.hh"

namespace laoram::crypto {
namespace {

std::vector<std::uint8_t>
pattern(std::size_t n, std::uint8_t base)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(base + i);
    return v;
}

std::vector<std::uint32_t>
epochsOf(const Encryptor &enc)
{
    return {enc.epochData(), enc.epochData() + enc.epochCount()};
}

/**
 * encryptSlots / decryptSlots over @p slots must equal the per-slot
 * loop byte for byte, and leave the same epoch table behind.
 */
void
expectVectoredMatchesLoop(Encryptor vec, Encryptor loop,
                          const std::vector<std::uint64_t> &slots,
                          std::size_t recordBytes)
{
    const std::size_t n = slots.size();
    std::vector<std::uint8_t> a(n * recordBytes);
    for (std::size_t i = 0; i < a.size(); ++i)
        a[i] = static_cast<std::uint8_t>(i * 131 + (i >> 8));
    const auto plain = a;
    std::vector<std::uint8_t> b = a;

    vec.encryptSlots(slots.data(), n, a.data(), recordBytes);
    for (std::size_t i = 0; i < n; ++i)
        loop.encryptSlot(slots[i], b.data() + i * recordBytes,
                         recordBytes);
    EXPECT_EQ(a, b) << n << " records of " << recordBytes << " B";
    EXPECT_EQ(epochsOf(vec), epochsOf(loop));

    vec.decryptSlots(slots.data(), n, a.data(), recordBytes);
    for (std::size_t i = 0; i < n; ++i)
        loop.decryptSlot(slots[i], b.data() + i * recordBytes,
                         recordBytes);
    EXPECT_EQ(a, b);
    EXPECT_EQ(epochsOf(vec), epochsOf(loop));
}

TEST(Encryptor, RoundTrip)
{
    Encryptor enc(Encryptor::deriveKey(1), 16);
    auto data = pattern(48, 3);
    const auto original = data;
    enc.encryptSlot(5, data.data(), data.size());
    EXPECT_NE(data, original);
    enc.decryptSlot(5, data.data(), data.size());
    EXPECT_EQ(data, original);
}

TEST(Encryptor, DifferentSlotsDifferentCiphertext)
{
    Encryptor enc(Encryptor::deriveKey(1), 16);
    auto a = pattern(32, 0);
    auto b = pattern(32, 0);
    enc.encryptSlot(0, a.data(), a.size());
    enc.encryptSlot(1, b.data(), b.size());
    EXPECT_NE(a, b) << "identical plaintexts in different slots must "
                       "not share ciphertext";
}

TEST(Encryptor, RewriteChangesCiphertext)
{
    // Writing the same plaintext twice into the same slot must yield
    // different ciphertext (fresh epoch => fresh nonce), or rewrites
    // would leak "content unchanged".
    Encryptor enc(Encryptor::deriveKey(2), 4);
    auto first = pattern(32, 9);
    auto second = pattern(32, 9);
    enc.encryptSlot(2, first.data(), first.size());
    enc.encryptSlot(2, second.data(), second.size());
    EXPECT_NE(first, second);
    // Only the latest epoch decrypts correctly.
    enc.decryptSlot(2, second.data(), second.size());
    EXPECT_EQ(second, pattern(32, 9));
}

TEST(Encryptor, DisabledIsPassThrough)
{
    Encryptor enc = Encryptor::makeDisabled();
    EXPECT_FALSE(enc.enabled());
    auto data = pattern(16, 1);
    const auto original = data;
    enc.encryptSlot(0, data.data(), data.size());
    EXPECT_EQ(data, original);
    enc.decryptSlot(0, data.data(), data.size());
    EXPECT_EQ(data, original);
}

TEST(Encryptor, DeriveKeyDeterministic)
{
    EXPECT_EQ(Encryptor::deriveKey(77), Encryptor::deriveKey(77));
    EXPECT_NE(Encryptor::deriveKey(77), Encryptor::deriveKey(78));
}

TEST(Encryptor, KeySeparation)
{
    Encryptor e1(Encryptor::deriveKey(1), 4);
    Encryptor e2(Encryptor::deriveKey(2), 4);
    auto a = pattern(32, 5);
    auto b = pattern(32, 5);
    e1.encryptSlot(0, a.data(), a.size());
    e2.encryptSlot(0, b.data(), b.size());
    EXPECT_NE(a, b);
}

TEST(Encryptor, VectoredMatchesPerSlotLoop)
{
    const Key256 key = Encryptor::deriveKey(9);
    const std::vector<std::vector<std::uint64_t>> cases = {
        {},                  // n = 0
        {5},                 // n = 1
        {3, 7, 3, 0, 15, 3}, // slot 3 written three times in one call
        {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
    };
    for (std::size_t recordBytes : {16UL, 80UL, 144UL, 200UL}) {
        for (const auto &slots : cases) {
            Encryptor vec(key, 16), loop(key, 16);
            expectVectoredMatchesLoop(vec, loop, slots, recordBytes);
        }
    }
    // Longer than one nonce chunk, with repeats across chunk borders.
    std::vector<std::uint64_t> longCall;
    for (std::uint64_t i = 0; i < 300; ++i)
        longCall.push_back((i * 7) % 23);
    expectVectoredMatchesLoop(Encryptor(key, 23), Encryptor(key, 23),
                              longCall, 144);
}

TEST(Encryptor, VectoredDisabledIsPassThrough)
{
    Encryptor enc = Encryptor::makeDisabled();
    const std::uint64_t slots[3] = {0, 9, 0};
    auto data = pattern(3 * 40, 7);
    const auto original = data;
    enc.encryptSlots(slots, 3, data.data(), 40);
    EXPECT_EQ(data, original);
    enc.decryptSlots(slots, 3, data.data(), 40);
    EXPECT_EQ(data, original);
}

TEST(Encryptor, EpochWrapFailsClosed)
{
    // A slot whose 32-bit epoch is spent must refuse the next write:
    // wrapping to epoch 0 would reuse a (slot, epoch) nonce.
    constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
    Encryptor enc(Encryptor::deriveKey(4), 8);
    std::vector<std::uint32_t> epochs(8, 5);
    epochs[3] = kMax;
    epochs[6] = kMax - 1;
    enc.restoreEpochs(epochs.data(), epochs.size());

    auto rec = pattern(32, 1);
    try {
        enc.encryptSlot(3, rec.data(), rec.size());
        FAIL() << "encrypting a spent slot did not throw";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("slot 3 "),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(epochsOf(enc), epochs);

    // The throw comes before any epoch of the call moves, including
    // the ones bumped earlier in the same call.
    const std::uint64_t mixed[3] = {1, 2, 3};
    std::vector<std::uint8_t> recs(3 * 32, 0);
    EXPECT_THROW(enc.encryptSlots(mixed, 3, recs.data(), 32),
                 std::runtime_error);
    EXPECT_EQ(epochsOf(enc), epochs);

    // A slot one write from the end takes that write, and a repeat of
    // it within the same call is refused.
    const std::uint64_t twice[2] = {6, 6};
    EXPECT_THROW(enc.encryptSlots(twice, 2, recs.data(), 32),
                 std::runtime_error);
    EXPECT_EQ(epochsOf(enc), epochs);

    // Every other slot still encrypts and decrypts.
    const auto plain = pattern(32, 1);
    for (std::uint64_t slot : {0, 1, 2, 4, 5, 6, 7}) {
        auto data = plain;
        enc.encryptSlot(slot, data.data(), data.size());
        EXPECT_NE(data, plain);
        enc.decryptSlot(slot, data.data(), data.size());
        EXPECT_EQ(data, plain) << "slot " << slot;
    }
    EXPECT_EQ(enc.epochData()[6], kMax);
    EXPECT_EQ(enc.epochData()[3], kMax);
}

} // namespace
} // namespace laoram::crypto
