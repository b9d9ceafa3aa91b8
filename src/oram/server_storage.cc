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

/** Every ServerStorage's treetop ledger, pulled as storage.treetop_*. */
obs::LedgerSet<ServerStorage::TreetopStats> &
liveTreetop()
{
    using S = ServerStorage::TreetopStats;
    return obs::MetricsRegistry::instance().ledgers<S>(
        "storage.treetop_",
        {
            {"slots_read", "treetop slots read from client memory",
             &S::slotsRead},
            {"slots_written", "treetop slots written to client memory",
             &S::slotsWritten},
        });
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
      topSlots(geom.levelFirstSlot(geom.treetopLevels())),
      occupancy(divCeil(nSlots, 64), 0),
      treetop(topSlots * recBytes, 0),
      liveTop(liveTreetop()),
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
    liveTop.attach(&topStats);
    initialise();
}

ServerStorage::~ServerStorage()
{
    // The sink may capture a caller's locals that are already gone.
    sink = nullptr;
    // A non-persistent store dies with this object: encrypting the
    // treetop into it would be thrown away.
    flush(store->persistent());
    liveTop.detach(&topStats);
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
        // The treetop and the occupancy bitmap are client memory, so
        // they did not survive the previous run: load the prefix its
        // last flush wrote, then rebuild the bitmap from the records'
        // headers, under the epochs just restored.
        loadTreetop();
        occupancy = scanOccupancy();
        return;
    }

    // Every slot starts as a valid (encrypted) dummy record, and
    // every occupancy bit clear, so the bitmap needs no update.
    // Initialised in vectored chunks — one backend op per chunk, not
    // per slot; treetop slots start as canonical plaintext dummies,
    // so the chunks' dummy writes leave them as they are.
    for (std::uint64_t s = 0; s < topSlots; ++s)
        encodeRecord(SlotWriteOp{s, kInvalidBlock, 0, nullptr, 0},
                     treetop.data() + s * recBytes);
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
ServerStorage::loadTreetop()
{
    if (topSlots == 0)
        return;
    fillSlotRange(0, topSlots);
    store->readSlots(slotScratch.data(), topSlots, treetop.data());
    enc.decryptSlots(slotScratch.data(), topSlots, treetop.data(),
                     recBytes);
    StoredBlock b;
    for (std::uint64_t s = 0; s < topSlots; ++s) {
        std::uint8_t *rec = treetop.data() + s * recBytes;
        if (loadU64(rec) != kInvalidBlock) {
            decodeRecord(s, rec, b); // refuses a forged record
            continue;
        }
        // A dummy's bytes are never trusted: keep the canonical one.
        encodeRecord(SlotWriteOp{s, kInvalidBlock, 0, nullptr, 0}, rec);
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

const std::uint64_t *
ServerStorage::farSlots(const std::uint64_t *slots, std::size_t n,
                        std::size_t &nFar) const
{
    nFar = n;
    while (nFar > 0 && slots[nFar - 1] < topSlots)
        --nFar;
    const std::uint64_t *mixed =
        std::find_if(slots, slots + nFar,
                     [this](std::uint64_t s) { return s < topSlots; });
    if (mixed == slots + nFar)
        return slots;
    farScratch.assign(slots, mixed);
    for (const std::uint64_t *s = mixed; s != slots + nFar; ++s)
        if (*s >= topSlots)
            farScratch.push_back(*s);
    nFar = farScratch.size();
    return farScratch.data();
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
    std::size_t nFar = n;
    const std::uint64_t *far =
        topSlots == 0 ? slots : farSlots(slots, n, nFar);

    // One branch per *path* when no sink is installed — the audit tap
    // only costs per-slot work while a probe is actually attached.
    if (sink) {
        for (std::size_t i = 0; i < nFar; ++i)
            sink(far[i], false);
    }
    staging.resize(nFar * recBytes);
    store->readSlots(far, nFar, staging.data());

    // Compact the occupied slots' records to the front of staging, in
    // slot order, and decrypt only those. A dummy slot is never
    // decrypted or copied, so its bytes are never trusted.
    slotScratch.clear();
    for (std::size_t i = 0; i < nFar; ++i) {
        if (!occupied(far[i]))
            continue;
        const std::size_t real = slotScratch.size();
        if (real != i)
            std::memmove(staging.data() + real * recBytes,
                         staging.data() + i * recBytes, recBytes);
        slotScratch.push_back(far[i]);
    }
    enc.decryptSlots(slotScratch.data(), slotScratch.size(),
                     staging.data(), recBytes);

    // Backend records come back in request order, so the next
    // occupied backend slot's record is always at rec.
    const std::uint8_t *rec = staging.data();
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t slot = slots[i];
        if (!occupied(slot)) {
            out[i].id = kInvalidBlock;
            out[i].leaf = 0;
            out[i].payload.clear();
        } else if (slot < topSlots) {
            decodeRecord(slot, treetop.data() + slot * recBytes, out[i]);
        } else {
            decodeRecord(slot, rec, out[i]);
            rec += recBytes;
        }
    }
    topStats.slotsRead += n - nFar;
}

std::vector<std::uint64_t>
ServerStorage::scanOccupancy() const
{
    std::vector<std::uint64_t> bits(occupancy.size(), 0);
    for (std::uint64_t slot = 0; slot < topSlots; ++slot) {
        if (loadU64(treetop.data() + slot * recBytes) != kInvalidBlock)
            bits[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    }

    // One backend read per chunk. Each record's 16-B header is packed
    // to the front of staging (in place: header i moves down to
    // i * 16) and decrypted alone, one keystream block per slot.
    for (std::uint64_t base = topSlots; base < nSlots;
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
    std::size_t nFar = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (ops[i].slot < topSlots)
            continue;
        slotScratch[nFar] = ops[i].slot;
        encodeRecord(ops[i], staging.data() + nFar * recBytes);
        ++nFar;
    }
    sealAndStore(nFar);
    if (nFar == n)
        return;
    // Treetop records cost what they hold, not how wide the top is:
    // a dummy overwrites only the slot's id header (flush()
    // canonicalises the rest before anything leaves client memory).
    for (std::size_t i = 0; i < n; ++i) {
        if (ops[i].slot >= topSlots)
            continue;
        std::uint8_t *rec = treetop.data() + ops[i].slot * recBytes;
        if (ops[i].id != kInvalidBlock)
            encodeRecord(ops[i], rec);
        else
            storeU64(rec, kInvalidBlock);
    }
    topStats.slotsWritten += n - nFar;
}

void
ServerStorage::sealAndStore(std::size_t n)
{
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
    flush(true);
}

void
ServerStorage::flush(bool withTreetop)
{
    if (withTreetop && topSlots > 0) {
        // The prefix's one write, fixed whatever it holds: every
        // treetop slot in slot order, under fresh epochs. A dummy's
        // record may still carry a departed block's leaf and
        // payload, so each goes out as the canonical dummy.
        staging.assign(treetop.begin(), treetop.end());
        for (std::uint64_t s = 0; s < topSlots; ++s) {
            if (!occupied(s))
                encodeRecord(SlotWriteOp{s, kInvalidBlock, 0, nullptr, 0},
                             staging.data() + s * recBytes);
        }
        fillSlotRange(0, topSlots);
        sealAndStore(topSlots);
    }
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
