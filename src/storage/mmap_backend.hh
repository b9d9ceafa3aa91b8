/**
 * @file
 * MmapFileBackend — a persistent, file-backed slot store.
 *
 * The tree lives in one flat file mapped MAP_SHARED:
 *
 *   [ header page ][ meta region ][ slot region ]
 *
 * The header records the geometry (slots, recordBytes, metaBytes) so
 * a keepExisting reopen can verify it is attaching to a compatible
 * tree; the meta region persists the owner's small metadata blob
 * (ServerStorage stores its encryption epoch table there); the slot
 * region is the record array.
 *
 * A vectored read or write is a memcpy loop between the mapping and
 * the caller's staging buffer, so the page faults that pull bytes
 * from the file land inside the timed I/O window: the serving
 * thread's reported stalls are genuine I/O waits. A read first hands
 * the kernel one MADV_WILLNEED per contiguous run of its slots, so
 * the copy faults on pages already in flight. Durability is a
 * flush() policy (nothing / msync MS_ASYNC / msync MS_SYNC);
 * MADV_RANDOM is always applied because ORAM slot traffic is
 * uniformly random by construction.
 */

#ifndef LAORAM_STORAGE_MMAP_BACKEND_HH
#define LAORAM_STORAGE_MMAP_BACKEND_HH

#include "storage/slot_backend.hh"

namespace laoram::storage {

/** File-backed mmap slot store; survives process restart. */
class MmapFileBackend final : public SlotBackend
{
  public:
    /**
     * Create (or, with cfg.keepExisting, reopen) cfg.path for a tree
     * of @p slots records of @p recordBytes, reserving @p metaBytes
     * of persisted metadata capacity.
     *
     * @throws std::runtime_error when keepExisting finds an existing
     *         file whose header does not match this geometry (never
     *         silently clobbers a tree); ShapeMismatch when its size
     *         does not.
     */
    MmapFileBackend(const StorageConfig &cfg, std::uint64_t slots,
                    std::uint64_t recordBytes, std::uint64_t metaBytes);
    ~MmapFileBackend() override;

    std::uint64_t residentBytes() const override;
    bool persistent() const override { return true; }
    bool openedExisting() const override { return reopened; }
    void dropPageCache() override;

    std::uint64_t metaCapacity() const override { return metaBytes; }
    void writeMeta(const std::uint8_t *src, std::uint64_t len) override;
    std::uint64_t readMeta(std::uint8_t *dst,
                           std::uint64_t len) const override;

    const std::string &path() const { return filePath; }

    /** Total file size (header + meta + slots), for reports. */
    std::uint64_t fileBytes() const { return totalBytes; }

  protected:
    void doReadSlots(const std::uint64_t *slots, std::size_t n,
                     std::uint8_t *dst) override;
    void doWriteSlots(const std::uint64_t *slots, std::size_t n,
                      const std::uint8_t *src) override;
    void doFlush() override;

  private:
    std::string filePath;
    Durability durability;
    int fd = -1;
    std::uint8_t *map = nullptr;   ///< whole-file mapping
    std::uint8_t *metaBase = nullptr;
    std::uint8_t *slotBase = nullptr;
    std::uint64_t metaBytes = 0;   ///< caller-visible meta capacity
    std::uint64_t totalBytes = 0;  ///< mapped length
    std::uint64_t pageBytes = 4096;
    bool reopened = false;
};

} // namespace laoram::storage

#endif // LAORAM_STORAGE_MMAP_BACKEND_HH
