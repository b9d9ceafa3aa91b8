#include "crypto/encryptor.hh"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/logging.hh"
#include "util/rng.hh"

namespace laoram::crypto {

namespace {

// Nonces built per xorRecords call (1.5 KiB of stack): more than one
// path's slots, so a path is one kernel pass.
constexpr std::size_t kNonceChunk = 128;

/** XOR @p n records, record i under nonceAt(i), a chunk at a time. */
template <typename NonceAt>
void
xorChunked(const Key256 &key, std::size_t n, std::uint8_t *records,
           std::size_t recordBytes, NonceAt nonceAt)
{
    Nonce96 nonces[kNonceChunk];
    for (std::size_t base = 0; base < n; base += kNonceChunk) {
        const std::size_t m = std::min(kNonceChunk, n - base);
        for (std::size_t i = 0; i < m; ++i)
            nonces[i] = nonceAt(base + i);
        ChaCha20::xorRecords(key, nonces, records + base * recordBytes,
                             recordBytes, m);
    }
}

} // namespace

Encryptor::Encryptor(const Key256 &key, std::uint64_t slots)
    : isEnabled(true), key(key), epochs(slots, 0)
{
}

Encryptor::Encryptor() : isEnabled(false) {}

Encryptor
Encryptor::makeDisabled()
{
    return Encryptor();
}

Nonce96
Encryptor::nonceFor(std::uint64_t slot, std::uint32_t epoch) const
{
    // Nonce = slot id (8 bytes LE) || epoch (4 bytes LE): unique per
    // (slot, write) pair, which is all a stream cipher needs.
    Nonce96 nonce{};
    for (int i = 0; i < 8; ++i)
        nonce[i] = static_cast<std::uint8_t>(slot >> (8 * i));
    for (int i = 0; i < 4; ++i)
        nonce[8 + i] = static_cast<std::uint8_t>(epoch >> (8 * i));
    return nonce;
}

void
Encryptor::encryptSlots(const std::uint64_t *slots, std::size_t n,
                        std::uint8_t *records, std::size_t recordBytes)
{
    if (!isEnabled)
        return;
    xorChunked(key, n, records, recordBytes, [&](std::size_t i) {
        const std::uint64_t slot = slots[i];
        LAORAM_ASSERT(slot < epochs.size(), "slot out of range");
        if (epochs[slot] == std::numeric_limits<std::uint32_t>::max()) {
            // Undo this call's bumps so the table still matches what
            // the backend holds.
            for (std::size_t j = i; j-- > 0;)
                --epochs[slots[j]];
            throw std::runtime_error(
                "slot " + std::to_string(slot)
                + " has used all 2^32 write epochs; encrypting it again "
                  "would reuse a (slot, epoch) nonce, so refusing to "
                  "write");
        }
        return nonceFor(slot, ++epochs[slot]);
    });
}

void
Encryptor::decryptSlots(const std::uint64_t *slots, std::size_t n,
                        std::uint8_t *records,
                        std::size_t recordBytes) const
{
    if (!isEnabled)
        return;
    xorChunked(key, n, records, recordBytes, [&](std::size_t i) {
        LAORAM_ASSERT(slots[i] < epochs.size(), "slot out of range");
        return nonceFor(slots[i], epochs[slots[i]]);
    });
}

std::array<std::uint8_t, kKeyCheckBytes>
Encryptor::keyCheck() const
{
    std::array<std::uint8_t, kKeyCheckBytes> out{};
    if (!isEnabled)
        return out;
    // Slot index all-ones is unreachable by record writes (slots are
    // bounded by epochs.size()), so this nonce never collides with a
    // record keystream.
    ChaCha20::xorStream(key, nonceFor(~std::uint64_t{0}, 0), 0,
                        out.data(), out.size());
    return out;
}

void
Encryptor::restoreEpochs(const std::uint32_t *data, std::uint64_t count)
{
    LAORAM_ASSERT(isEnabled, "restoring epochs on a disabled encryptor");
    LAORAM_ASSERT(count == epochs.size(), "epoch table holds ", count,
                  " entries, storage has ", epochs.size(), " slots");
    epochs.assign(data, data + count);
}

Key256
Encryptor::deriveKey(std::uint64_t seed)
{
    Key256 k{};
    std::uint64_t sm = seed;
    for (int i = 0; i < 4; ++i) {
        const std::uint64_t word = splitMix64(sm);
        for (int b = 0; b < 8; ++b)
            k[8 * i + b] = static_cast<std::uint8_t>(word >> (8 * b));
    }
    return k;
}

} // namespace laoram::crypto
