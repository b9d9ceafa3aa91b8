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
 * Treetop (Ren et al., ISCA 2013). With geometry().treetopLevels() =
 * k > 0 the heap-order slot prefix [0, geometry().levelFirstSlot(k)), the
 * buckets of the top k levels, lives in trusted client memory: one
 * flat array of plaintext records, treetopSlots() * recordBytes()
 * bytes (2.25 MiB for train-kaggle's 2^19-leaf fat(4) tree at k =
 * 10, whose geometry widens those levels to 16 slots a bucket), with
 * no per-slot allocation. Every path shares these levels, so a path
 * read or write-back moves that much less through ChaCha20 and the
 * backend. readSlots and writeSlots serve prefix slots from the array
 * and send the rest to the backend as one vectored op in the caller's
 * order; the occupancy bitmap covers both. A prefix write costs what
 * the slot holds, not how wide the top is: a dummy written over a
 * slot overwrites only its 8-B id header (PathIo skips a dummy over a
 * dummy altogether). During a run prefix slots never
 * reach the backend, the Encryptor or the access sink. The server
 * therefore sees each path's levels >= k, in full, exactly as before.
 * flush() (and so every checkpoint) first writes the whole prefix
 * through the codec: one vectored write of every prefix slot in slot
 * order, each unoccupied one as the canonical dummy, encrypted under
 * advanced epochs and shown to the sink; the pattern is fixed and
 * independent of the data. A reopened tree loads the prefix back from
 * the backend (one read, fully decrypted) before rebuilding the
 * occupancy bitmap. For a uniform profile the tree file, its meta
 * layout and geometry().serverBytes() do not depend on k: after a
 * flush the backend holds the whole tree, so a tree written at one k
 * reopens at any other. A non-uniform profile's geometry does depend
 * on k (TreeGeometry), so such a tree reopens only at the k it was
 * written with; any other is refused with an error naming the
 * treetop. The destructor's flush runs with the sink detached, since
 * a test's tap may not outlive the storage. treetopStats() counts the
 * prefix slots served from client memory (storage.treetop_*).
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
#include "obs/metrics.hh"
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

    /**
     * Storage with the backend described by @p scfg. Like every
     * constructor it keeps the top geom.treetopLevels() levels in
     * client memory, so a geometry and its storage cannot disagree
     * about k.
     */
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

    /** Tree levels kept in client memory (0: none). */
    unsigned treetopLevels() const { return geom.treetopLevels(); }

    /** Slots [0, treetopSlots()) live in client memory. */
    std::uint64_t treetopSlots() const { return topSlots; }

    /** Prefix slots served from client memory instead of the backend. */
    struct TreetopStats
    {
        obs::Relaxed<std::uint64_t> slotsRead = 0;
        obs::Relaxed<std::uint64_t> slotsWritten = 0;
    };

    /** Monotonic treetop ledger (storage.treetop_* metrics). */
    const TreetopStats &treetopStats() const { return topStats; }

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
     * Vectored path read: fetch @p n slots as one backend operation
     * (treetop slots from client memory), decoding into @p out
     * (resized to n; payload capacity reused across calls). Slot i of
     * @p slots lands in out[i]. Only the
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
     * Vectored path write-back: apply @p n ops as one backend op
     * (treetop slots into client memory), then mark each op's slot
     * real (id != kInvalidBlock) or dummy in the occupancy bitmap.
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
     * the first slot where they differ. Reads every slot below the
     * treetop through the backend (counted in ioStats(), not shown to
     * the sink); treetop slots are checked against client memory.
     */
    std::string auditOccupancy() const;

    /**
     * Persist: write the treetop prefix back to the backend (one
     * vectored write of every prefix slot, shown to the sink), save
     * the encryption epoch table into the backend's meta region
     * (persistent backends) and apply its durability policy. Called
     * automatically on destruction, where the prefix write is skipped
     * unless the backend is persistent: the records die with it.
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
    /** flush(), writing the treetop prefix only when @p withTreetop. */
    void flush(bool withTreetop);

    void initialise();

    /** Read the treetop prefix back from a reopened backend. */
    void loadTreetop();

    /** The vectored read codec: decode @p n slots into out[0..n). */
    void readInto(const std::uint64_t *slots, std::size_t n,
                  StoredBlock *out) const;

    /**
     * The backend part of a request: @p slots without its treetop
     * slots, in order, its length in @p nFar. That is a prefix of
     * @p slots itself when the treetop slots form the tail, as in
     * every PathIo union; otherwise a copy in farScratch.
     */
    const std::uint64_t *farSlots(const std::uint64_t *slots,
                                  std::size_t n, std::size_t &nFar) const;

    /**
     * Decode the plaintext record @p rec of occupied slot @p slot into
     * @p out; throws when it holds no block or an out-of-tree leaf.
     */
    void decodeRecord(std::uint64_t slot, const std::uint8_t *rec,
                      StoredBlock &out) const;

    /**
     * Occupancy from the tree itself: the treetop from client memory,
     * then every other slot in chunks, setting the bit of each slot
     * whose header decrypts to a real block.
     */
    std::vector<std::uint64_t> scanOccupancy() const;

    /** slotScratch = base, base + 1, ..., base + n - 1. */
    void fillSlotRange(std::uint64_t base, std::size_t n) const;

    /** Serialise one write op into the plaintext record @p rec. */
    void encodeRecord(const SlotWriteOp &op, std::uint8_t *rec);

    /**
     * writeSlots without the bitmap update: backend ops first, then
     * the treetop slots' records into client memory.
     */
    void writeRecords(const SlotWriteOp *ops, std::size_t n);

    /**
     * Show the first @p n slots of slotScratch to the sink, encrypt
     * staging's first @p n plaintext records under them and write
     * them to the backend as one op.
     */
    void sealAndStore(std::size_t n);

    const TreeGeometry &geom;
    std::uint64_t payBytes;
    std::uint64_t recBytes;
    std::uint64_t nSlots;
    std::uint64_t topSlots;
    std::vector<std::uint64_t> occupancy; ///< one bit per slot, 1 = real
    /** Treetop prefix: topSlots plaintext records, in slot order. */
    std::vector<std::uint8_t> treetop;
    mutable TreetopStats topStats;
    obs::LedgerSet<TreetopStats> &liveTop;
    std::unique_ptr<storage::SlotBackend> store;
    mutable crypto::Encryptor enc;
    AccessSink sink;
    bool wasReopened = false;

    // Whole-path record buffer and slot lists (the write's slots, the
    // read's real slots, a scan chunk's slots; the read's backend
    // slots when they must be gathered), reused across calls to avoid
    // per-path allocation.
    mutable std::vector<std::uint8_t> staging;
    mutable std::vector<std::uint64_t> slotScratch;
    mutable std::vector<std::uint64_t> farScratch;
};

} // namespace laoram::oram

#endif // LAORAM_ORAM_SERVER_STORAGE_HH
