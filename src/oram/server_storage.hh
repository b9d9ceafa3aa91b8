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
 * Records move through one vectored codec. The client keeps a trusted
 * occupancy bitmap, one bit per slot (nSlots / 8 bytes of client
 * memory: 541 kB for a 4.33M-slot tree): writeSlots sets a slot's
 * bit when it writes a real record there and clears it when it
 * writes a dummy, once the backend write has returned. readSlots has
 * the backend fill one staging buffer with the path's at-rest
 * records, compacts the occupied slots' records to the front of it,
 * in slot order, and decrypts only those with one
 * Encryptor::decryptSlots call, taking each real block's (id, leaf)
 * from its decrypted header. A dummy slot is never decrypted or
 * copied (with LAORAM's fat tree most slots on a fetched path are
 * dummies), and its bytes are never trusted: a server that
 * overwrites a dummy cannot inject a block. An occupied slot whose
 * header decrypts to no block, or to a leaf outside the tree, throws
 * a std::runtime_error naming the slot instead of reaching the
 * stash. writeSlots encodes every record into the staging buffer,
 * encrypts it with one Encryptor::encryptSlots call and hands the
 * whole path to one backend write: every slot of a write-back, dummy
 * or real, gets fresh ciphertext. One call per pass keeps the
 * multi-lane ChaCha20 kernel's lanes full (one lane per record
 * block). The single-slot readSlot / writeSlot / writeDummy calls are
 * n = 1 uses of the same codec, so the access sink, the range check
 * and the I/O ledger see every access the same way. Path engines call
 * the vectored form once per path (union), so a backend can coalesce,
 * prefetch or issue one real I/O per path, and the adversary access
 * sink costs one branch per path instead of one per slot when no sink
 * is installed. Backend time (storage.<kind>.*_ns) is pure transfer
 * on every kind: encryption runs outside it.
 *
 * The bitmap is client memory, so a reopened persistent tree (mmap,
 * or remote over mmap, checkpoint restore included) rebuilds it at
 * construction with one header scan: the slots in chunks through the
 * same backend read, each record's 16-B header decrypted alone (one
 * keystream block per slot). It mirrors a fresh tree's chunked
 * dummy init, and it is the only place that decrypts headers on
 * their own. auditOccupancy() reruns the scan and compares.
 *
 * Decrypting only real records makes the client's decrypt work grow
 * with the number of real records on the path, as stash absorption
 * and the eviction plan already do. The server-visible stream does
 * not depend on occupancy: every slot of a path is still fetched, in
 * the caller's order, and every slot of a write-back still
 * rewritten, so the adversary sees the same (slot, isWrite)
 * sequence. An integrity MAC would be checked over the ciphertext,
 * which the backend still returns for every slot.
 *
 * The storage holds only what the server holds. The top k levels the
 * geometry keeps in trusted client memory (Ren et al., ISCA 2013) are
 * client state like the stash: PathIo's treetop slot table holds
 * their blocks, so no slot below
 * geometry().levelFirstSlot(k) is read or written after construction,
 * and flush() writes only the epoch table and the key canary. The
 * geometry still numbers those slots, so a fresh tree initialises
 * them as dummies like every other slot; the storage needs k only to
 * name it when a reopened non-uniform tree has another shape
 * (storage::ShapeMismatch).
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
#include <string>
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
     * across calls). Slot i of @p slots lands in out[i]. Only the
     * slots the occupancy bitmap marks real are decrypted: each comes
     * back with its decrypted id, leaf and full payloadBytes()
     * payload. Every other slot comes back as a dummy (isDummy(),
     * leaf 0, empty payload) without its bytes being looked at, so
     * readers must not use a dummy's payload. Reads never change the
     * encryption epochs or the bitmap.
     *
     * @throws std::runtime_error naming the slot when an occupied
     *         slot decrypts to kInvalidBlock or to a leaf at or
     *         above geometry().numLeaves() (a forged record).
     */
    void readSlots(const std::uint64_t *slots, std::size_t n,
                   std::vector<StoredBlock> &out) const;

    /**
     * Vectored path write-back: apply @p n ops as one backend op,
     * then mark each op's slot real (id != kInvalidBlock) or dummy in
     * the occupancy bitmap.
     */
    void writeSlots(const SlotWriteOp *ops, std::size_t n);

    /** Occupancy bit of @p slot: true when it holds a real record. */
    bool
    occupied(std::uint64_t slot) const
    {
        return (occupancy[slot >> 6] >> (slot & 63)) & 1;
    }

    /**
     * Rerun the reopen header scan into a scratch bitmap and compare
     * it with the live one: "" when they agree, else a message naming
     * the first slot where they differ. Reads every slot through the
     * backend (counted in ioStats(), not shown to the sink).
     */
    std::string auditOccupancy() const;

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

    /**
     * Decode the plaintext record @p rec of occupied slot @p slot into
     * @p out; throws when it holds no block or an out-of-tree leaf.
     */
    void decodeRecord(std::uint64_t slot, const std::uint8_t *rec,
                      StoredBlock &out) const;

    /**
     * Occupancy from the tree itself: every slot in chunks, setting
     * the bit of each slot whose header decrypts to a real block.
     */
    std::vector<std::uint64_t> scanOccupancy() const;

    /** slotScratch = base, base + 1, ..., base + n - 1. */
    void fillSlotRange(std::uint64_t base, std::size_t n) const;

    /** Serialise one write op into the plaintext record @p rec. */
    void encodeRecord(const SlotWriteOp &op, std::uint8_t *rec);

    /** writeSlots without the bitmap update. */
    void writeRecords(const SlotWriteOp *ops, std::size_t n);

    const TreeGeometry &geom;
    std::uint64_t payBytes;
    std::uint64_t recBytes;
    std::uint64_t nSlots;
    std::vector<std::uint64_t> occupancy; ///< one bit per slot, 1 = real
    std::unique_ptr<storage::SlotBackend> store;
    mutable crypto::Encryptor enc;
    AccessSink sink;
    bool wasReopened = false;

    // Whole-path record buffer and slot list (the read's real slots,
    // a scan chunk's slots), reused across calls to avoid per-path
    // allocation.
    mutable std::vector<std::uint8_t> staging;
    mutable std::vector<std::uint64_t> slotScratch;
};

} // namespace laoram::oram

#endif // LAORAM_ORAM_SERVER_STORAGE_HH
