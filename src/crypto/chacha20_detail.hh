/**
 * @file
 * The ChaCha20::xorRecords lane kernels, exposed so tests and the
 * micro-bench can run each one directly.
 *
 * Every kernel has the xorRecords contract and produces the same
 * bytes. "scalar" is word-wise portable C++ and is built everywhere;
 * on x86-64 the build adds one generic vector body instantiated at 4
 * (SSE2), 8 (AVX2) and 16 (AVX-512F) lanes through function target
 * attributes, so no translation unit is compiled with a wider ISA
 * than the baseline. xorRecords runs selectedKernel(), the widest
 * kernel the CPU supports, picked once per process.
 */

#ifndef LAORAM_CRYPTO_CHACHA20_DETAIL_HH
#define LAORAM_CRYPTO_CHACHA20_DETAIL_HH

#include <cstddef>

#include "crypto/chacha20.hh"

namespace laoram::crypto::detail {

/** One xorRecords implementation. */
struct RecordsKernel
{
    /** ISA name: "scalar", "sse2", "avx2" or "avx512". */
    const char *name;
    /** Same contract as ChaCha20::xorRecords. */
    void (*xorRecords)(const Key256 &key, const Nonce96 *nonces,
                       std::uint8_t *records, std::size_t recordBytes,
                       std::size_t n);
    /** Whether this CPU can run the kernel. */
    bool (*supported)();
};

/** Every kernel compiled into this build, narrowest first. */
const RecordsKernel *recordsKernels(std::size_t &count);

/** The kernel ChaCha20::xorRecords dispatches to. */
const RecordsKernel &selectedKernel();

} // namespace laoram::crypto::detail

#endif // LAORAM_CRYPTO_CHACHA20_DETAIL_HH
