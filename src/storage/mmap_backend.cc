#include "storage/mmap_backend.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "util/logging.hh"

#if defined(_WIN32)
#error "MmapFileBackend requires a POSIX platform"
#endif

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace laoram::storage {

namespace {

constexpr std::uint64_t kMagic = 0x54'4C'53'52'4F'41'4CULL; // "LAORSLT"
constexpr std::uint32_t kVersion = 1;

/** On-disk header, held in the file's first page. */
struct FileHeader
{
    std::uint64_t magic;
    std::uint32_t version;
    std::uint32_t reserved;
    std::uint64_t slots;
    std::uint64_t recordBytes;
    std::uint64_t metaBytes;
};

std::uint64_t
roundUp(std::uint64_t v, std::uint64_t to)
{
    return (v + to - 1) / to * to;
}

} // namespace

MmapFileBackend::MmapFileBackend(const StorageConfig &cfg,
                                 std::uint64_t slots,
                                 std::uint64_t recordBytes,
                                 std::uint64_t metaBytesWanted)
    : SlotBackend(slots, recordBytes, "mmap"),
      filePath(cfg.path),
      durability(cfg.durability),
      metaBytes(metaBytesWanted)
{
    const long page = sysconf(_SC_PAGESIZE);
    pageBytes = page > 0 ? static_cast<std::uint64_t>(page) : 4096;

    const std::uint64_t headerRegion = roundUp(sizeof(FileHeader),
                                               pageBytes);
    const std::uint64_t metaRegion = roundUp(metaBytes, pageBytes);
    totalBytes = headerRegion + metaRegion + nSlots * recBytes;

    fd = ::open(filePath.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0)
        LAORAM_FATAL("mmap backend: cannot open '", filePath,
                     "': ", std::strerror(errno));

    struct stat st{};
    if (::fstat(fd, &st) != 0)
        LAORAM_FATAL("mmap backend: fstat('", filePath,
                     "') failed: ", std::strerror(errno));

    if (cfg.keepExisting
        && static_cast<std::uint64_t>(st.st_size) == totalBytes) {
        // Attach to the existing tree; header verified after mapping.
        reopened = true;
    } else if (cfg.keepExisting && st.st_size != 0) {
        ::close(fd);
        throw ShapeMismatch(
            "mmap backend: '" + filePath + "' exists with size "
            + std::to_string(st.st_size) + " but this tree needs "
            + std::to_string(totalBytes)
            + " bytes; refusing to clobber an incompatible store");
    } else {
        // Fresh store: size the file (sparse; pages materialise on
        // first write) and stamp the header below.
        if (::ftruncate(fd, 0) != 0
            || ::ftruncate(fd, static_cast<off_t>(totalBytes)) != 0)
            LAORAM_FATAL("mmap backend: ftruncate('", filePath, "', ",
                         totalBytes,
                         ") failed: ", std::strerror(errno));
    }

    void *m = ::mmap(nullptr, totalBytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED, fd, 0);
    if (m == MAP_FAILED)
        LAORAM_FATAL("mmap backend: mmap of '", filePath, "' (",
                     totalBytes, " B) failed: ", std::strerror(errno));
    map = static_cast<std::uint8_t *>(m);
    metaBase = map + headerRegion;
    slotBase = metaBase + metaRegion;

    auto *hdr = reinterpret_cast<FileHeader *>(map);
    if (reopened) {
        if (hdr->magic != kMagic || hdr->version != kVersion
            || hdr->slots != nSlots || hdr->recordBytes != recBytes
            || hdr->metaBytes != metaBytes) {
            ::munmap(map, totalBytes);
            ::close(fd);
            throw std::runtime_error(
                "mmap backend: '" + filePath
                + "' header does not describe this tree (slots/record"
                  "/meta geometry mismatch); refusing to reopen");
        }
    } else {
        hdr->magic = kMagic;
        hdr->version = kVersion;
        hdr->reserved = 0;
        hdr->slots = nSlots;
        hdr->recordBytes = recBytes;
        hdr->metaBytes = metaBytes;
    }

    // An ORAM's physical access pattern is uniformly random by
    // construction, so read-ahead would only pollute the page cache.
    ::madvise(slotBase, nSlots * recBytes, MADV_RANDOM);
}

MmapFileBackend::~MmapFileBackend()
{
    if (map) {
        // Buffered durability still makes the close orderly: dirty
        // pages are scheduled for write-back before the mapping goes
        // away, so a clean reopen reads what was written.
        ::msync(map, totalBytes,
                durability == Durability::Sync ? MS_SYNC : MS_ASYNC);
        ::munmap(map, totalBytes);
    }
    if (fd >= 0)
        ::close(fd);
}

void
MmapFileBackend::doReadSlots(const std::uint64_t *slots, std::size_t n,
                             std::uint8_t *dst)
{
    // Coalesce the slot list into maximal contiguous byte ranges and
    // hand each to the kernel as one page-aligned MADV_WILLNEED —
    // the copy below then faults on pages already in flight instead
    // of demand-paging one bucket at a time. Path slot lists arrive
    // bucket-contiguous, so this degenerates to one hint per tree
    // node run.
    std::size_t i = 0;
    while (i < n) {
        std::size_t j = i + 1;
        while (j < n && slots[j] == slots[j - 1] + 1)
            ++j;
        const std::uint64_t begin = slots[i] * recBytes;
        const std::uint64_t end = (slots[j - 1] + 1) * recBytes;
        const std::uint64_t pageBegin = begin / pageBytes * pageBytes;
        const std::uint64_t pageEnd = roundUp(end, pageBytes);
        ::madvise(slotBase + pageBegin, pageEnd - pageBegin,
                  MADV_WILLNEED);
        i = j;
    }
    for (std::size_t k = 0; k < n; ++k)
        std::memcpy(dst + k * recBytes, slotBase + slots[k] * recBytes,
                    recBytes);
}

void
MmapFileBackend::doWriteSlots(const std::uint64_t *slots, std::size_t n,
                              const std::uint8_t *src)
{
    for (std::size_t i = 0; i < n; ++i)
        std::memcpy(slotBase + slots[i] * recBytes, src + i * recBytes,
                    recBytes);
}

void
MmapFileBackend::doFlush()
{
    switch (durability) {
      case Durability::Buffered:
        break;
      case Durability::Async:
        ::msync(map, totalBytes, MS_ASYNC);
        break;
      case Durability::Sync:
        ::msync(map, totalBytes, MS_SYNC);
        break;
    }
}

std::uint64_t
MmapFileBackend::residentBytes() const
{
    // mincore() the mapping chunk by chunk: one vec byte per page,
    // bounded scratch even for paper-scale trees.
    constexpr std::size_t kChunkPages = 1 << 16; // 256 MiB per chunk
    unsigned char vec[kChunkPages];
    std::uint64_t resident = 0;
    const std::uint64_t pages = (totalBytes + pageBytes - 1)
        / pageBytes;
    for (std::uint64_t p = 0; p < pages; p += kChunkPages) {
        const std::size_t count = static_cast<std::size_t>(
            std::min<std::uint64_t>(kChunkPages, pages - p));
        if (::mincore(map + p * pageBytes, count * pageBytes, vec)
            != 0)
            return 0; // unsupported: report nothing rather than lie
        for (std::size_t i = 0; i < count; ++i)
            if (vec[i] & 1)
                resident += pageBytes;
    }
    return resident;
}

void
MmapFileBackend::dropPageCache()
{
    // Cold-cache benching: push dirty pages to media, drop this
    // mapping's PTE references, THEN evict the now-unreferenced clean
    // pages from the page cache (fadvise skips pages a mapping still
    // holds, so the order matters). Subsequent slot reads fault back
    // in from the file — a genuinely cold run.
    ::msync(map, totalBytes, MS_SYNC);
    ::madvise(map, totalBytes, MADV_DONTNEED);
#if defined(POSIX_FADV_DONTNEED)
    ::posix_fadvise(fd, 0, static_cast<off_t>(totalBytes),
                    POSIX_FADV_DONTNEED);
#endif
}

void
MmapFileBackend::writeMeta(const std::uint8_t *src, std::uint64_t len)
{
    LAORAM_ASSERT(len <= metaBytes, "meta blob of ", len,
                  " B exceeds reserved capacity ", metaBytes);
    if (len > 0)
        std::memcpy(metaBase, src, len);
}

std::uint64_t
MmapFileBackend::readMeta(std::uint8_t *dst, std::uint64_t len) const
{
    const std::uint64_t n = std::min(len, metaBytes);
    if (n > 0)
        std::memcpy(dst, metaBase, n);
    return n;
}

} // namespace laoram::storage
