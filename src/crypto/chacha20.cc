#include "crypto/chacha20.hh"

#include <cstring>

#include "crypto/chacha20_detail.hh"

namespace laoram::crypto {

namespace {

// "expand 32-byte k" constants per RFC 8439 §2.3.
constexpr std::uint32_t kSigma[4] = {0x61707865, 0x3320646e, 0x79622d32,
                                     0x6b206574};

// The round function, written once for scalar words and for GCC/Clang
// vector types alike. These are macros rather than inline functions
// so the target-attributed kernels below expand them under their own
// ISA instead of calling a helper compiled for the baseline one.
// clang-format off
#define LAORAM_ROTL32(v, k) (((v) << (k)) | ((v) >> (32 - (k))))
#define LAORAM_ROTATE_WORD(v, k) v = LAORAM_ROTL32(v, k)
#define LAORAM_QUARTER_ROUND(a, b, c, d, ROTATE)                          \
    do {                                                                 \
        a += b; d ^= a; ROTATE(d, 16);                                   \
        c += d; b ^= c; ROTATE(b, 12);                                   \
        a += b; d ^= a; ROTATE(d, 8);                                    \
        c += d; b ^= c; ROTATE(b, 7);                                    \
    } while (0)
#define LAORAM_DOUBLE_ROUND(x, ROTATE)                                   \
    do {                                                                 \
        /* column rounds */                                              \
        LAORAM_QUARTER_ROUND(x[0], x[4], x[8], x[12], ROTATE);           \
        LAORAM_QUARTER_ROUND(x[1], x[5], x[9], x[13], ROTATE);           \
        LAORAM_QUARTER_ROUND(x[2], x[6], x[10], x[14], ROTATE);          \
        LAORAM_QUARTER_ROUND(x[3], x[7], x[11], x[15], ROTATE);          \
        /* diagonal rounds */                                            \
        LAORAM_QUARTER_ROUND(x[0], x[5], x[10], x[15], ROTATE);          \
        LAORAM_QUARTER_ROUND(x[1], x[6], x[11], x[12], ROTATE);          \
        LAORAM_QUARTER_ROUND(x[2], x[7], x[8], x[13], ROTATE);           \
        LAORAM_QUARTER_ROUND(x[3], x[4], x[9], x[14], ROTATE);           \
    } while (0)
// clang-format on

inline std::uint32_t
load32le(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0])
        | (static_cast<std::uint32_t>(p[1]) << 8)
        | (static_cast<std::uint32_t>(p[2]) << 16)
        | (static_cast<std::uint32_t>(p[3]) << 24);
}

inline void
store32le(std::uint8_t *p, std::uint32_t v)
{
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8);
    p[2] = static_cast<std::uint8_t>(v >> 16);
    p[3] = static_cast<std::uint8_t>(v >> 24);
}

/** The 16 keystream words of block @p counter under (key, nonce). */
void
blockWords(const Key256 &key, const Nonce96 &nonce, std::uint32_t counter,
           std::uint32_t out[16])
{
    std::uint32_t state[16];
    for (int i = 0; i < 4; ++i)
        state[i] = kSigma[i];
    for (int i = 0; i < 8; ++i)
        state[4 + i] = load32le(key.data() + 4 * i);
    state[12] = counter;
    for (int i = 0; i < 3; ++i)
        state[13 + i] = load32le(nonce.data() + 4 * i);

    std::uint32_t x[16];
    std::memcpy(x, state, sizeof(x));
    for (int round = 0; round < 10; ++round)
        LAORAM_DOUBLE_ROUND(x, LAORAM_ROTATE_WORD);
    for (int i = 0; i < 16; ++i)
        out[i] = x[i] + state[i];
}

/** XOR @p len (<= 64) bytes of @p data with keystream words @p ks. */
void
xorWords(std::uint8_t *data, const std::uint32_t ks[16], std::size_t len)
{
    std::size_t i = 0;
    for (; i + 4 <= len; i += 4)
        store32le(data + i, load32le(data + i) ^ ks[i / 4]);
    for (; i < len; ++i)
        data[i] ^= static_cast<std::uint8_t>(ks[i / 4] >> (8 * (i % 4)));
}

void
xorRecordsScalar(const Key256 &key, const Nonce96 *nonces,
                 std::uint8_t *records, std::size_t recordBytes,
                 std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        ChaCha20::xorStream(key, nonces[i], 0, records + i * recordBytes,
                            recordBytes);
}

bool
always()
{
    return true;
}

#if defined(__x86_64__)

template <int W>
struct LaneVec;
template <>
struct LaneVec<4>
{
    typedef std::uint32_t type __attribute__((vector_size(16)));
};
template <>
struct LaneVec<8>
{
    typedef std::uint32_t type __attribute__((vector_size(32)));
    typedef std::uint8_t bytes __attribute__((vector_size(32)));
};
template <>
struct LaneVec<16>
{
    typedef std::uint32_t type __attribute__((vector_size(64)));
};

// lo / hi = the low / high halves of a and b interleaved lane by lane
// (a0 b0 a1 b1 ... / aW/2 bW/2 ...). log2(W) rounds of zipping row i
// with row i + W/2 transpose a W x W block of words.
// clang-format off
#define LAORAM_ZIP(W, a, b, lo, hi)                                      \
    do {                                                                 \
        if constexpr (W == 4) {                                          \
            lo = __builtin_shufflevector(a, b, 0, 4, 1, 5);              \
            hi = __builtin_shufflevector(a, b, 2, 6, 3, 7);              \
        } else if constexpr (W == 8) {                                   \
            lo = __builtin_shufflevector(a, b, 0, 8, 1, 9, 2, 10, 3,     \
                                         11);                            \
            hi = __builtin_shufflevector(a, b, 4, 12, 5, 13, 6, 14, 7,   \
                                         15);                            \
        } else {                                                         \
            lo = __builtin_shufflevector(a, b, 0, 16, 1, 17, 2, 18, 3,   \
                                         19, 4, 20, 5, 21, 6, 22, 7,     \
                                         23);                            \
            hi = __builtin_shufflevector(a, b, 8, 24, 9, 25, 10, 26, 11, \
                                         27, 12, 28, 13, 29, 14, 30, 15, \
                                         31);                            \
        }                                                                \
    } while (0)

// Rotate every lane of v left by k. AVX2 has no vector rotate, so at
// 8 lanes the byte-aligned rotations (16, 8) are one byte shuffle
// instead of two shifts and an OR; AVX-512F has a rotate instruction
// the compiler picks from the shift form.
#define LAORAM_ROTATE_LANES(v, k)                                        \
    do {                                                                 \
        if constexpr (W == 8 && k == 16) {                               \
            using B = typename LaneVec<W>::bytes;                        \
            v = (V)__builtin_shufflevector(                              \
                (B)v, (B)v, 2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14,    \
                15, 12, 13, 18, 19, 16, 17, 22, 23, 20, 21, 26, 27, 24,  \
                25, 30, 31, 28, 29);                                     \
        } else if constexpr (W == 8 && k == 8) {                         \
            using B = typename LaneVec<W>::bytes;                        \
            v = (V)__builtin_shufflevector(                              \
                (B)v, (B)v, 3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15,    \
                12, 13, 14, 19, 16, 17, 18, 23, 20, 21, 22, 27, 24, 25,  \
                26, 31, 28, 29, 30);                                     \
        } else {                                                         \
            v = LAORAM_ROTL32(v, k);                                     \
        }                                                                \
    } while (0)
// clang-format on

/**
 * The lane kernel: one lane per (record, 64-B block) pair, W lanes per
 * batch, each lane keyed by its record's nonce and counter = its block
 * index. A ragged last batch repeats lane 0's input in its spare lanes
 * and writes nothing back from them. Always inlined, so the vector
 * code is generated under the ISA of the target-attributed caller.
 */
template <int W>
[[gnu::always_inline]] inline void
xorRecordsLanes(const Key256 &key, const Nonce96 *nonces,
                std::uint8_t *records, std::size_t recordBytes,
                std::size_t n)
{
    using V = typename LaneVec<W>::type;
    constexpr std::size_t kVecBytes = sizeof(V);
    const std::size_t blocksPerRecord =
        (recordBytes + ChaCha20::blockBytes - 1) / ChaCha20::blockBytes;
    const std::size_t lanes = n * blocksPerRecord;

    // x86 is little-endian, so the RFC's LE words are plain loads.
    std::uint32_t keyWords[8];
    std::memcpy(keyWords, key.data(), sizeof(keyWords));

    std::size_t rec = 0; // (record, block) of the next lane
    std::size_t blk = 0;
    for (std::size_t first = 0; first < lanes; first += W) {
        // Row 0: block counter; rows 1-3: nonce words.
        alignas(64) std::uint32_t in[4][W] = {};
        std::uint8_t *dst[W] = {};
        std::size_t len[W] = {};
        for (int l = 0; l < W; ++l) {
            if (first + l < lanes) {
                in[0][l] = static_cast<std::uint32_t>(blk);
                std::memcpy(&in[1][l], nonces[rec].data(), 4);
                std::memcpy(&in[2][l], nonces[rec].data() + 4, 4);
                std::memcpy(&in[3][l], nonces[rec].data() + 8, 4);
                const std::size_t off = blk * ChaCha20::blockBytes;
                dst[l] = records + rec * recordBytes + off;
                len[l] = recordBytes - off < ChaCha20::blockBytes
                    ? recordBytes - off
                    : ChaCha20::blockBytes;
                if (++blk == blocksPerRecord) {
                    blk = 0;
                    ++rec;
                }
            } else {
                for (int r = 0; r < 4; ++r)
                    in[r][l] = in[r][0];
            }
        }

        V x[16] = {};
        for (int i = 0; i < 4; ++i)
            x[i] = V{} + kSigma[i];
        for (int i = 0; i < 8; ++i)
            x[4 + i] = V{} + keyWords[i];
        for (int i = 0; i < 4; ++i)
            std::memcpy(&x[12 + i], in[i], kVecBytes);
        for (int round = 0; round < 10; ++round)
            LAORAM_DOUBLE_ROUND(x, LAORAM_ROTATE_LANES);

        V ks[16];
        for (int i = 0; i < 4; ++i)
            ks[i] = x[i] + kSigma[i];
        for (int i = 0; i < 8; ++i)
            ks[4 + i] = x[4 + i] + keyWords[i];
        for (int i = 0; i < 4; ++i) {
            V s;
            std::memcpy(&s, in[i], kVecBytes);
            ks[12 + i] = x[12 + i] + s;
        }

        // Transpose each group of W state words so that ks[g + l]
        // holds keystream words g .. g + W - 1 of lane l, then XOR.
        for (int g = 0; g < 16; g += W) {
            V *rows = ks + g;
            for (int step = 1; step < W; step *= 2) {
                V t[W];
                for (int i = 0; i < W / 2; ++i)
                    LAORAM_ZIP(W, rows[i], rows[i + W / 2], t[2 * i],
                               t[2 * i + 1]);
                for (int i = 0; i < W; ++i)
                    rows[i] = t[i];
            }
            const std::size_t off = 4 * static_cast<std::size_t>(g);
            for (int l = 0; l < W; ++l) {
                if (len[l] >= off + kVecBytes) {
                    V d;
                    std::memcpy(&d, dst[l] + off, kVecBytes);
                    d ^= rows[l];
                    std::memcpy(dst[l] + off, &d, kVecBytes);
                } else if (len[l] > off) {
                    // Ragged record tail: word-wise up to len.
                    std::uint32_t words[W];
                    std::memcpy(words, &rows[l], kVecBytes);
                    std::uint8_t *p = dst[l] + off;
                    const std::size_t m = len[l] - off;
                    std::size_t i = 0;
                    for (; i + 4 <= m; i += 4) {
                        std::uint32_t w;
                        std::memcpy(&w, p + i, 4);
                        w ^= words[i / 4];
                        std::memcpy(p + i, &w, 4);
                    }
                    for (; i < m; ++i)
                        p[i] ^= static_cast<std::uint8_t>(
                            words[i / 4] >> (8 * (i % 4)));
                }
            }
        }
    }
}

__attribute__((target("sse2"))) void
xorRecordsSse2(const Key256 &key, const Nonce96 *nonces,
               std::uint8_t *records, std::size_t recordBytes,
               std::size_t n)
{
    xorRecordsLanes<4>(key, nonces, records, recordBytes, n);
}

__attribute__((target("avx2"))) void
xorRecordsAvx2(const Key256 &key, const Nonce96 *nonces,
               std::uint8_t *records, std::size_t recordBytes,
               std::size_t n)
{
    xorRecordsLanes<8>(key, nonces, records, recordBytes, n);
}

__attribute__((target("avx512f"))) void
xorRecordsAvx512(const Key256 &key, const Nonce96 *nonces,
                 std::uint8_t *records, std::size_t recordBytes,
                 std::size_t n)
{
    xorRecordsLanes<16>(key, nonces, records, recordBytes, n);
}

bool
cpuHasAvx2()
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2");
}

bool
cpuHasAvx512()
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f");
}

#endif // __x86_64__

constexpr detail::RecordsKernel kKernels[] = {
    {"scalar", xorRecordsScalar, always},
#if defined(__x86_64__)
    {"sse2", xorRecordsSse2, always}, // the x86-64 baseline
    {"avx2", xorRecordsAvx2, cpuHasAvx2},
    {"avx512", xorRecordsAvx512, cpuHasAvx512},
#endif
};

} // namespace

namespace detail {

const RecordsKernel *
recordsKernels(std::size_t &count)
{
    count = sizeof(kKernels) / sizeof(kKernels[0]);
    return kKernels;
}

const RecordsKernel &
selectedKernel()
{
    static const RecordsKernel &picked = []() -> const RecordsKernel & {
        std::size_t i = sizeof(kKernels) / sizeof(kKernels[0]);
        while (!kKernels[i - 1].supported())
            --i; // scalar is always supported
        return kKernels[i - 1];
    }();
    return picked;
}

} // namespace detail

void
ChaCha20::block(const Key256 &key, const Nonce96 &nonce,
                std::uint32_t counter, std::uint8_t out[blockBytes])
{
    std::uint32_t ks[16];
    blockWords(key, nonce, counter, ks);
    for (int i = 0; i < 16; ++i)
        store32le(out + 4 * i, ks[i]);
}

void
ChaCha20::xorStream(const Key256 &key, const Nonce96 &nonce,
                    std::uint32_t counter, std::uint8_t *data,
                    std::size_t len)
{
    std::uint32_t ks[16];
    for (std::size_t off = 0; off < len; off += blockBytes) {
        blockWords(key, nonce, counter++, ks);
        xorWords(data + off, ks, len - off < blockBytes ? len - off
                                                        : blockBytes);
    }
}

void
ChaCha20::xorRecords(const Key256 &key, const Nonce96 *nonces,
                     std::uint8_t *records, std::size_t recordBytes,
                     std::size_t n)
{
    detail::selectedKernel().xorRecords(key, nonces, records, recordBytes,
                                        n);
}

} // namespace laoram::crypto
