#include "oram/server_storage.hh"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "util/logging.hh"

namespace laoram::oram {

namespace {

constexpr std::uint64_t kHeaderBytes = 16; // id (8) + leaf (8)

inline void
storeU64(std::uint8_t *p, std::uint64_t v)
{
    std::memcpy(p, &v, sizeof(v)); // little-endian hosts only (x86/ARM)
}

inline std::uint64_t
loadU64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

/**
 * Persisted-meta layout: the 4 B/slot encryption epoch table followed
 * by the 16 B key-check canary (see Encryptor::keyCheck).
 */
std::uint64_t
metaBytesFor(bool encrypt, std::uint64_t slots)
{
    return encrypt
        ? slots * sizeof(std::uint32_t) + crypto::kKeyCheckBytes
        : 0;
}

} // namespace

ServerStorage::ServerStorage(const TreeGeometry &geom,
                             std::uint64_t payloadBytes, bool encrypt,
                             std::uint64_t keySeed)
    : ServerStorage(geom, payloadBytes, encrypt, keySeed,
                    storage::StorageConfig{})
{
}

ServerStorage::ServerStorage(const TreeGeometry &geom,
                             std::uint64_t payloadBytes, bool encrypt,
                             std::uint64_t keySeed,
                             const storage::StorageConfig &scfg)
    : ServerStorage(
          geom, payloadBytes, encrypt, keySeed,
          storage::makeBackend(scfg, geom.totalSlots(),
                               kHeaderBytes + payloadBytes,
                               metaBytesFor(encrypt,
                                            geom.totalSlots())))
{
}

ServerStorage::ServerStorage(
    const TreeGeometry &geom, std::uint64_t payloadBytes, bool encrypt,
    std::uint64_t keySeed,
    std::unique_ptr<storage::SlotBackend> backend)
    : geom(geom),
      payBytes(payloadBytes),
      recBytes(kHeaderBytes + payloadBytes),
      nSlots(geom.totalSlots()),
      store(std::move(backend)),
      enc(encrypt
              ? crypto::Encryptor(crypto::Encryptor::deriveKey(keySeed),
                                  nSlots)
              : crypto::Encryptor::makeDisabled())
{
    LAORAM_ASSERT(store, "ServerStorage needs a backend");
    LAORAM_ASSERT(store->slots() == nSlots, "backend holds ",
                  store->slots(), " slots, geometry needs ", nSlots);
    LAORAM_ASSERT(store->recordBytes() == recBytes, "backend records ",
                  store->recordBytes(), " B, storage needs ", recBytes);
    initialise();
}

ServerStorage::~ServerStorage()
{
    flush();
}

void
ServerStorage::initialise()
{
    if (store->openedExisting()) {
        // Reopened persistent tree: records are served as-is; an
        // encrypted tree additionally restores the epoch table the
        // previous run persisted, so every slot decrypts under the
        // nonce it was last written with — after checking the key
        // canary, so a wrong keySeed fails loudly at reopen instead
        // of silently decoding garbage records.
        wasReopened = true;
        if (enc.enabled()) {
            const std::uint64_t want = metaBytesFor(true, nSlots);
            std::vector<std::uint8_t> meta(want, 0);
            const std::uint64_t got =
                store->readMeta(meta.data(), want);
            LAORAM_ASSERT(got == want, "reopened store returned ", got,
                          " B of epoch metadata, expected ", want);
            const auto check = enc.keyCheck();
            if (std::memcmp(meta.data() + want - check.size(),
                            check.data(), check.size())
                != 0) {
                throw std::runtime_error(
                    "reopened encrypted tree was written under a "
                    "different key (key-check canary mismatch); "
                    "refusing to serve garbage records");
            }
            enc.restoreEpochs(
                reinterpret_cast<const std::uint32_t *>(meta.data()),
                nSlots);
        }
        return;
    }

    // Every slot starts as a valid (encrypted) dummy record so that
    // the first read of any path decrypts cleanly. Initialised in
    // vectored chunks — one backend op per chunk, not per slot.
    constexpr std::uint64_t kInitChunk = 4096;
    std::vector<SlotWriteOp> ops;
    for (std::uint64_t base = 0; base < nSlots; base += kInitChunk) {
        const std::uint64_t stop =
            std::min(base + kInitChunk, nSlots);
        ops.clear();
        for (std::uint64_t s = base; s < stop; ++s) {
            SlotWriteOp op;
            op.slot = s;
            ops.push_back(op);
        }
        writeSlots(ops.data(), ops.size());
    }
}

void
ServerStorage::encodeRecord(const SlotWriteOp &op, std::uint8_t *rec)
{
    LAORAM_ASSERT(op.len <= payBytes, "payload (", op.len,
                  " B) exceeds slot payload capacity (", payBytes,
                  " B)");
    storeU64(rec, op.id);
    storeU64(rec + 8, op.leaf);
    if (payBytes > 0) {
        if (op.len > 0)
            std::memcpy(rec + kHeaderBytes, op.payload, op.len);
        if (op.len < payBytes)
            std::memset(rec + kHeaderBytes + op.len, 0,
                        payBytes - op.len);
    }
}

void
ServerStorage::readSlot(std::uint64_t slot, StoredBlock &out) const
{
    readInto(&slot, 1, &out);
}

void
ServerStorage::readSlots(const std::uint64_t *slots, std::size_t n,
                         std::vector<StoredBlock> &out) const
{
    out.resize(n);
    readInto(slots, n, out.data());
}

void
ServerStorage::readInto(const std::uint64_t *slots, std::size_t n,
                        StoredBlock *out) const
{
    // One branch per *path* when no sink is installed — the audit tap
    // only costs per-slot work while a probe is actually attached.
    if (sink) {
        for (std::size_t i = 0; i < n; ++i)
            sink(slots[i], false);
    }
    staging.resize(n * recBytes);
    store->readSlots(slots, n, staging.data());

    // Header pass: one keystream block per slot decrypts every id and
    // leaf, which is all the client needs to tell real from dummy.
    headerScratch.resize(n * kHeaderBytes);
    for (std::size_t i = 0; i < n; ++i)
        std::memcpy(headerScratch.data() + i * kHeaderBytes,
                    staging.data() + i * recBytes, kHeaderBytes);
    enc.decryptSlots(slots, n, headerScratch.data(), kHeaderBytes);

    // Record pass: compact the real records to the front of staging,
    // in slot order, and decrypt only those. A dummy's payload is
    // never decrypted or copied.
    slotScratch.clear();
    for (std::size_t i = 0; i < n; ++i) {
        if (loadU64(headerScratch.data() + i * kHeaderBytes)
            == kInvalidBlock)
            continue;
        const std::size_t real = slotScratch.size();
        if (real != i)
            std::memmove(staging.data() + real * recBytes,
                         staging.data() + i * recBytes, recBytes);
        slotScratch.push_back(slots[i]);
    }
    enc.decryptSlots(slotScratch.data(), slotScratch.size(),
                     staging.data(), recBytes);

    const std::uint8_t *rec = staging.data();
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint8_t *hdr = headerScratch.data() + i * kHeaderBytes;
        out[i].id = loadU64(hdr);
        out[i].leaf = loadU64(hdr + 8);
        if (out[i].isDummy()) {
            out[i].payload.clear();
            continue;
        }
        out[i].payload.assign(rec + kHeaderBytes, rec + recBytes);
        rec += recBytes;
    }
}

void
ServerStorage::writeSlot(std::uint64_t slot, BlockId id, Leaf leaf,
                         const std::uint8_t *payload, std::size_t len)
{
    const SlotWriteOp op{slot, id, leaf, payload, len};
    writeSlots(&op, 1);
}

void
ServerStorage::writeDummy(std::uint64_t slot)
{
    writeSlot(slot, kInvalidBlock, 0, nullptr, 0);
}

void
ServerStorage::writeSlots(const SlotWriteOp *ops, std::size_t n)
{
    if (sink) {
        for (std::size_t i = 0; i < n; ++i)
            sink(ops[i].slot, true);
    }
    staging.resize(n * recBytes);
    slotScratch.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        slotScratch[i] = ops[i].slot;
        encodeRecord(ops[i], staging.data() + i * recBytes);
    }
    enc.encryptSlots(slotScratch.data(), n, staging.data(), recBytes);
    store->writeSlots(slotScratch.data(), n, staging.data());
}

void
ServerStorage::flush()
{
    if (enc.enabled()) {
        const std::uint64_t want = metaBytesFor(true, nSlots);
        if (store->metaCapacity() >= want) {
            // [epoch table][key-check canary]
            std::vector<std::uint8_t> meta(want, 0);
            std::memcpy(meta.data(), enc.epochData(),
                        nSlots * sizeof(std::uint32_t));
            const auto check = enc.keyCheck();
            std::memcpy(meta.data() + want - check.size(),
                        check.data(), check.size());
            store->writeMeta(meta.data(), want);
        }
    }
    store->flush();
}

std::uint64_t
ServerStorage::residentBytes() const
{
    return store->residentBytes();
}

} // namespace laoram::oram
