/**
 * @file
 * ChaCha20 stream cipher (RFC 8439 block function).
 *
 * The paper assumes server-resident embedding blocks are encrypted so
 * that only the *address* stream leaks; we implement that assumption
 * rather than hand-waving it. ChaCha20 is used (a) by Encryptor to
 * encrypt bucket payloads at rest and (b) as a deterministic keyed PRF
 * where tests need reproducible pseudorandom bytes.
 *
 * Encryption is on the serve path (every slot of every path read and
 * written), so the bulk entry point is xorRecords: one call XORs a
 * whole path's records, each under its own nonce, and generates the
 * keystream many blocks at a time with one SIMD lane per (record,
 * 64-B block) pair. The lane kernel is chosen once per process from
 * what the CPU supports (AVX-512F, AVX2 or SSE2 on x86-64; a
 * word-wise scalar kernel elsewhere), and every kernel produces the
 * same bytes (see crypto/chacha20_detail.hh). block and xorStream are
 * the scalar single-nonce forms. All of them are validated against
 * the RFC 8439 test vectors in tests/crypto.
 */

#ifndef LAORAM_CRYPTO_CHACHA20_HH
#define LAORAM_CRYPTO_CHACHA20_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace laoram::crypto {

/** 256-bit key. */
using Key256 = std::array<std::uint8_t, 32>;
/** 96-bit nonce (RFC 8439 layout). */
using Nonce96 = std::array<std::uint8_t, 12>;

/**
 * ChaCha20 keystream generator / XOR cipher.
 *
 * Stateless convenience API: every call derives the keystream from
 * (key, nonce, counter), so encrypt and decrypt are the same operation.
 */
class ChaCha20
{
  public:
    static constexpr std::size_t blockBytes = 64;

    /**
     * Produce one 64-byte keystream block.
     *
     * @param key      256-bit key
     * @param nonce    96-bit nonce
     * @param counter  block counter (RFC 8439 initial counter word)
     * @param out      64-byte output buffer
     */
    static void block(const Key256 &key, const Nonce96 &nonce,
                      std::uint32_t counter,
                      std::uint8_t out[blockBytes]);

    /**
     * XOR @p len bytes of @p data in place with the keystream starting
     * at block @p counter. Encrypt == decrypt.
     */
    static void xorStream(const Key256 &key, const Nonce96 &nonce,
                          std::uint32_t counter, std::uint8_t *data,
                          std::size_t len);

    /**
     * XOR @p n contiguous records of @p recordBytes bytes in place:
     * record i (at records + i * recordBytes) with the keystream of
     * @p nonces[i], starting at counter 0. Byte-identical to calling
     * xorStream(key, nonces[i], 0, ...) on each record.
     */
    static void xorRecords(const Key256 &key, const Nonce96 *nonces,
                           std::uint8_t *records, std::size_t recordBytes,
                           std::size_t n);
};

} // namespace laoram::crypto

#endif // LAORAM_CRYPTO_CHACHA20_HH
