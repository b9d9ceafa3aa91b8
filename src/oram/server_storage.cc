#include "oram/server_storage.hh"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace laoram::oram {

namespace {

constexpr std::uint64_t kHeaderBytes = 16; // id (8) + leaf (8)

/** Slots per backend op of the fresh-tree init and the header scan. */
constexpr std::uint64_t kChunkSlots = 4096;

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

/**
 * The backend @p scfg describes, sized for @p geom. A non-uniform
 * profile's slot layout depends on the treetop level count, so a
 * store of another size (or slot count) refused for such a tree
 * names the k this geometry has.
 */
std::unique_ptr<storage::SlotBackend>
openBackend(const storage::StorageConfig &scfg, const TreeGeometry &geom,
            std::uint64_t payloadBytes, bool encrypt)
{
    try {
        return storage::makeBackend(
            scfg, geom.totalSlots(), kHeaderBytes + payloadBytes,
            metaBytesFor(encrypt, geom.totalSlots()));
    } catch (const storage::ShapeMismatch &e) {
        if (geom.profile().isUniform())
            throw;
        throw storage::ShapeMismatch(
            std::string(e.what())
            + "; a non-uniform bucket profile's tree has a different "
              "shape at every treetop level count (at 0, the linear "
              "fat tree), and this one is sized for treetopLevels = "
            + std::to_string(geom.treetopLevels())
            + ": reopen the tree at the k it was written with");
    }
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
    : ServerStorage(geom, payloadBytes, encrypt, keySeed,
                    openBackend(scfg, geom, payloadBytes, encrypt))
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
      occupancy(divCeil(nSlots, 64), 0),
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
        // The occupancy bitmap is client memory, so it did not
        // survive the previous run: rebuild it from the records'
        // headers, under the epochs just restored.
        occupancy = scanOccupancy();
        return;
    }

    // Every slot starts as a valid (encrypted) dummy record, and
    // every occupancy bit clear, so the bitmap needs no update.
    // Initialised in vectored chunks — one backend op per chunk, not
    // per slot.
    std::vector<SlotWriteOp> ops;
    for (std::uint64_t base = 0; base < nSlots; base += kChunkSlots) {
        const std::uint64_t stop =
            std::min(base + kChunkSlots, nSlots);
        ops.clear();
        for (std::uint64_t s = base; s < stop; ++s) {
            SlotWriteOp op;
            op.slot = s;
            ops.push_back(op);
        }
        writeRecords(ops.data(), ops.size());
    }
}

void
ServerStorage::fillSlotRange(std::uint64_t base, std::size_t n) const
{
    slotScratch.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        slotScratch[i] = base + i;
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
ServerStorage::decodeRecord(std::uint64_t slot, const std::uint8_t *rec,
                            StoredBlock &out) const
{
    out.id = loadU64(rec);
    out.leaf = loadU64(rec + 8);
    if (out.isDummy() || out.leaf >= geom.numLeaves()) {
        throw std::runtime_error(
            "slot " + std::to_string(slot)
            + " holds a real record but decrypted to block "
            + std::to_string(out.id) + " on leaf "
            + std::to_string(out.leaf) + " (tree has "
            + std::to_string(geom.numLeaves())
            + " leaves); the server altered it, so refusing to "
              "serve it");
    }
    out.payload.assign(rec + kHeaderBytes, rec + recBytes);
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

    // Compact the occupied slots' records to the front of staging, in
    // slot order, and decrypt only those. A dummy slot is never
    // decrypted or copied, so its bytes are never trusted.
    slotScratch.clear();
    for (std::size_t i = 0; i < n; ++i) {
        if (!occupied(slots[i]))
            continue;
        const std::size_t real = slotScratch.size();
        if (real != i)
            std::memmove(staging.data() + real * recBytes,
                         staging.data() + i * recBytes, recBytes);
        slotScratch.push_back(slots[i]);
    }
    enc.decryptSlots(slotScratch.data(), slotScratch.size(),
                     staging.data(), recBytes);

    // Records come back in request order, so the next occupied slot's
    // record is always at rec.
    const std::uint8_t *rec = staging.data();
    for (std::size_t i = 0; i < n; ++i) {
        if (!occupied(slots[i])) {
            out[i].id = kInvalidBlock;
            out[i].leaf = 0;
            out[i].payload.clear();
            continue;
        }
        decodeRecord(slots[i], rec, out[i]);
        rec += recBytes;
    }
}

std::vector<std::uint64_t>
ServerStorage::scanOccupancy() const
{
    std::vector<std::uint64_t> bits(occupancy.size(), 0);

    // One backend read per chunk. Each record's 16-B header is packed
    // to the front of staging (in place: header i moves down to
    // i * 16) and decrypted alone, one keystream block per slot.
    for (std::uint64_t base = 0; base < nSlots;
         base += kChunkSlots) {
        const std::size_t n = std::min(kChunkSlots, nSlots - base);
        fillSlotRange(base, n);
        staging.resize(n * recBytes);
        store->readSlots(slotScratch.data(), n, staging.data());
        for (std::size_t i = 1; i < n; ++i)
            std::memmove(staging.data() + i * kHeaderBytes,
                         staging.data() + i * recBytes, kHeaderBytes);
        enc.decryptSlots(slotScratch.data(), n, staging.data(),
                         kHeaderBytes);
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t slot = base + i;
            if (loadU64(staging.data() + i * kHeaderBytes)
                != kInvalidBlock)
                bits[slot >> 6] |= std::uint64_t{1} << (slot & 63);
        }
    }
    return bits;
}

std::string
ServerStorage::auditOccupancy() const
{
    const std::vector<std::uint64_t> scanned = scanOccupancy();
    for (std::uint64_t slot = 0; slot < nSlots; ++slot) {
        const bool inTree = (scanned[slot >> 6] >> (slot & 63)) & 1;
        if (inTree != occupied(slot)) {
            return "slot " + std::to_string(slot)
                + " occupancy bit says "
                + (inTree ? "dummy" : "real")
                + " but the tree holds a "
                + (inTree ? "real record" : "dummy");
        }
    }
    return "";
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
    writeRecords(ops, n);
    // Only once the backend holds the new records: a write that
    // throws above leaves the bitmap matching the tree. Consecutive
    // ops on one 64-slot word update it in a register, in op order,
    // and store it once.
    for (std::size_t i = 0; i < n;) {
        const std::uint64_t w = ops[i].slot >> 6;
        std::uint64_t word = occupancy[w];
        do {
            const std::uint64_t bit = std::uint64_t{1}
                << (ops[i].slot & 63);
            word = ops[i].id == kInvalidBlock ? word & ~bit : word | bit;
        } while (++i < n && (ops[i].slot >> 6) == w);
        occupancy[w] = word;
    }
}

void
ServerStorage::writeRecords(const SlotWriteOp *ops, std::size_t n)
{
    staging.resize(n * recBytes);
    slotScratch.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        slotScratch[i] = ops[i].slot;
        encodeRecord(ops[i], staging.data() + i * recBytes);
    }
    if (sink) {
        for (std::size_t i = 0; i < n; ++i)
            sink(slotScratch[i], true);
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
