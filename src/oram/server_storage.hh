/**
 * @file
 * The LAORAM *server* — the untrusted CPU-DRAM side of the protocol.
 *
 * Stores the tree as a slot array behind a pluggable storage backend
 * (storage::SlotBackend): DRAM by default, or a persistent mmap file
 * (storage::StorageConfig selects). Each slot holds a fixed-size
 * record: [block id (8 B)] [assigned leaf (8 B)] [payload
 * (payloadBytes)]. Records are encrypted at rest with a fresh nonce per
 * write (crypto::Encryptor), so the only information the server-side
 * observer gains is *which slots* are touched — exactly the paper's
 * threat model.
 *
 * Records move through one vectored codec. readSlots has the backend
 * fill one staging buffer with the path's at-rest records, then
 * decrypts in two passes. The header pass copies every record's 16-B
 * header (id, leaf) into a packed array and decrypts it with one
 * Encryptor::decryptSlots call: one keystream block per slot, which
 * tells real records from dummies. The record pass compacts the real
 * records to the front of the staging buffer, in slot order, and
 * decrypts only those with a second decryptSlots call; a dummy's
 * payload is never decrypted or copied (with LAORAM's fat tree most
 * slots on a fetched path are dummies). writeSlots encodes every
 * record into the staging buffer, encrypts it with one
 * Encryptor::encryptSlots call and hands the whole path to one
 * backend write: every slot of a write-back, dummy or real, gets
 * fresh ciphertext. One call per pass keeps the multi-lane ChaCha20
 * kernel's lanes full (one lane per record block). The single-slot
 * readSlot / writeSlot / writeDummy calls are n = 1 uses of the same
 * codec, so the access sink, the range check and the I/O ledger see
 * every access the same way. Path engines call the vectored form
 * once per path (union), so a backend can coalesce, prefetch or issue
 * one real I/O per path, and the adversary access sink costs one
 * branch per path instead of one per slot when no sink is installed.
 * Backend time (storage.<kind>.*_ns) is pure transfer on every kind:
 * encryption runs outside it.
 *
 * Skipping dummy payloads makes the client's decrypt work grow with
 * the number of real records on the path, as stash absorption and
 * the eviction plan already do. The server-visible stream is
 * unchanged: every slot of a path is still fetched and every slot of
 * a write-back still rewritten, so the adversary sees the same
 * (slot, isWrite) sequence. An integrity MAC would be checked over
 * the ciphertext, which the backend still returns for every slot.
 *
 * `payloadBytes` is deliberately decoupled from the geometry's logical
 * `blockBytes`: correctness tests run with real payloads, while
 * paper-scale benches set payloadBytes = 0 and account traffic in
 * logical bytes, keeping memory use manageable without changing any
 * access-pattern metric.
 */

#ifndef LAORAM_ORAM_SERVER_STORAGE_HH
#define LAORAM_ORAM_SERVER_STORAGE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "crypto/encryptor.hh"
#include "oram/tree_geometry.hh"
#include "oram/types.hh"
#include "storage/slot_backend.hh"

namespace laoram::oram {

/** Untrusted tree storage with encryption-at-rest. */
class ServerStorage
{
  public:
    /**
     * DRAM-backed storage (the default everywhere a backend is not
     * explicitly configured).
     *
     * @param geom         tree geometry (not owned; must outlive)
     * @param payloadBytes bytes of payload physically stored per block
     * @param encrypt      encrypt records at rest (ChaCha20)
     * @param keySeed      key-derivation seed when encrypting
     */
    ServerStorage(const TreeGeometry &geom, std::uint64_t payloadBytes,
                  bool encrypt, std::uint64_t keySeed = 0);

    /** Storage with the backend described by @p scfg. */
    ServerStorage(const TreeGeometry &geom, std::uint64_t payloadBytes,
                  bool encrypt, std::uint64_t keySeed,
                  const storage::StorageConfig &scfg);

    /** Storage over a caller-built backend (tests, custom stores). */
    ServerStorage(const TreeGeometry &geom, std::uint64_t payloadBytes,
                  bool encrypt, std::uint64_t keySeed,
                  std::unique_ptr<storage::SlotBackend> backend);

    ~ServerStorage();

    ServerStorage(const ServerStorage &) = delete;
    ServerStorage &operator=(const ServerStorage &) = delete;

    std::uint64_t payloadBytes() const { return payBytes; }
    std::uint64_t recordBytes() const { return recBytes; }
    const TreeGeometry &geometry() const { return geom; }

    /**
     * Read slot @p slot into @p out (reuses out.payload capacity);
     * the readSlots contract, for one slot.
     */
    void readSlot(std::uint64_t slot, StoredBlock &out) const;

    /** Write a real block into @p slot. */
    void writeSlot(std::uint64_t slot, BlockId id, Leaf leaf,
                   const std::uint8_t *payload, std::size_t len);

    /** Overwrite @p slot with an (encrypted) dummy record. */
    void writeDummy(std::uint64_t slot);

    /** One slot of a vectored write (id == kInvalidBlock => dummy). */
    struct SlotWriteOp
    {
        std::uint64_t slot = 0;
        BlockId id = kInvalidBlock;
        Leaf leaf = 0;
        const std::uint8_t *payload = nullptr;
        std::size_t len = 0;
    };

    /**
     * Vectored path read: fetch @p n slots as one backend operation,
     * decoding into @p out (resized to n; payload capacity reused
     * across calls). Slot i of @p slots lands in out[i]. A real
     * record comes back with its full payloadBytes() payload; a dummy
     * (isDummy()) comes back with an empty payload, since its payload
     * is never decrypted, so readers must not use a dummy's payload.
     * Reads never change the encryption epochs.
     */
    void readSlots(const std::uint64_t *slots, std::size_t n,
                   std::vector<StoredBlock> &out) const;

    /** Vectored path write-back: apply @p n ops as one backend op. */
    void writeSlots(const SlotWriteOp *ops, std::size_t n);

    /**
     * Persist: save the encryption epoch table into the backend's
     * meta region (persistent backends) and apply its durability
     * policy. Called automatically on destruction.
     */
    void flush();

    /** Number of physical slots (== geometry().totalSlots()). */
    std::uint64_t slots() const { return nSlots; }

    /**
     * DRAM-resident bytes of this storage, as reported by the
     * backend: the full array for DRAM, the currently-mapped page set
     * for an mmap tree (its file can dwarf its resident footprint).
     */
    std::uint64_t residentBytes() const;

    /** Monotonic backend I/O ledger (measured ns, ops, bytes). */
    const storage::IoStats &ioStats() const { return store->ioStats(); }

    /** Drop the backend's clean pages (cold-cache benching). */
    void dropPageCache() { store->dropPageCache(); }

    /**
     * True when construction attached to an existing persistent tree
     * (slots kept as-is, epochs restored) instead of dummy-initing.
     */
    bool reopened() const { return wasReopened; }

    /**
     * Adversary's-eye view for security tests: called with
     * (slot, isWrite) on every physical slot access. The sink sees
     * exactly what a bus probe sees — addresses, never contents.
     */
    using AccessSink = std::function<void(std::uint64_t, bool)>;
    void setAccessSink(AccessSink sink) { this->sink = std::move(sink); }

  private:
    void initialise();

    /** The vectored read codec: decode @p n slots into out[0..n). */
    void readInto(const std::uint64_t *slots, std::size_t n,
                  StoredBlock *out) const;

    /** Serialise one write op into the plaintext record @p rec. */
    void encodeRecord(const SlotWriteOp &op, std::uint8_t *rec);

    const TreeGeometry &geom;
    std::uint64_t payBytes;
    std::uint64_t recBytes;
    std::uint64_t nSlots;
    std::unique_ptr<storage::SlotBackend> store;
    mutable crypto::Encryptor enc;
    AccessSink sink;
    bool wasReopened = false;

    // Whole-path record buffer, packed header buffer and slot list
    // (the write's slots, the read's real slots), reused across calls
    // to avoid per-path allocation.
    mutable std::vector<std::uint8_t> staging;
    mutable std::vector<std::uint8_t> headerScratch;
    mutable std::vector<std::uint64_t> slotScratch;
};

} // namespace laoram::oram

#endif // LAORAM_ORAM_SERVER_STORAGE_HH
