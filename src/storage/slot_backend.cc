#include "storage/slot_backend.hh"

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "storage/dram_backend.hh"
#include "storage/mmap_backend.hh"
#include "storage/remote_backend.hh"
#include "util/logging.hh"
#include "util/walltime.hh"

namespace laoram::storage {

namespace {

/** Every backend of @p kind, pulled as its storage.<kind>.* series. */
obs::LedgerSet<IoStats> &
liveIo(const std::string &kind)
{
    using S = IoStats;
    return obs::MetricsRegistry::instance().ledgers<S>(
        "storage." + kind + ".",
        {
            {"read_ops", "read calls", &S::readOps},
            {"write_ops", "write calls", &S::writeOps},
            {"slots_read", "slots read", &S::slotsRead},
            {"slots_written", "slots written", &S::slotsWritten},
            {"bytes_read", "bytes read", &S::bytesRead},
            {"bytes_written", "bytes written", &S::bytesWritten},
            {"flushes", "flush calls", &S::flushes},
            {"read_ns", "measured ns inside reads", &S::readNs},
            {"write_ns", "measured ns inside writes", &S::writeNs},
            {"flush_ns", "measured ns inside flushes", &S::flushNs},
        });
}

/** Every IoStats member, by type, for the element-wise operators. */
constexpr IoStats::Count IoStats::*kCounts[] = {
    &IoStats::readOps,      &IoStats::writeOps,  &IoStats::slotsRead,
    &IoStats::slotsWritten, &IoStats::bytesRead, &IoStats::bytesWritten,
    &IoStats::flushes,
};
constexpr IoStats::Nanos IoStats::*kNanos[] = {
    &IoStats::readNs, &IoStats::writeNs, &IoStats::flushNs};

} // namespace

IoStats
IoStats::since(const IoStats &start) const
{
    IoStats d;
    for (Count IoStats::*m : kCounts)
        d.*m = this->*m - start.*m;
    for (Nanos IoStats::*m : kNanos)
        d.*m = this->*m - start.*m;
    return d;
}

IoStats &
IoStats::operator+=(const IoStats &other)
{
    for (Count IoStats::*m : kCounts)
        this->*m += other.*m;
    for (Nanos IoStats::*m : kNanos)
        this->*m += other.*m;
    return *this;
}

const char *
backendKindName(BackendKind kind)
{
    switch (kind) {
      case BackendKind::Dram:
        return "dram";
      case BackendKind::MmapFile:
        return "mmap";
      case BackendKind::Remote:
        return "remote";
    }
    return "?";
}

SlotBackend::SlotBackend(std::uint64_t slots, std::uint64_t recordBytes,
                         std::string kind)
    : nSlots(slots), recBytes(recordBytes), kind(std::move(kind)),
      live(liveIo(this->kind))
{
    LAORAM_ASSERT(recBytes > 0, "slot records cannot be empty");
    live.attach(&stats);
}

SlotBackend::~SlotBackend()
{
    live.detach(&stats);
}

void
SlotBackend::checkSlots(const std::uint64_t *slots, std::size_t n) const
{
    for (std::size_t i = 0; i < n; ++i)
        LAORAM_ASSERT(slots[i] < nSlots, "slot ", slots[i],
                      " out of range");
}

void
SlotBackend::readSlots(const std::uint64_t *slots, std::size_t n,
                       std::uint8_t *dst)
{
    if (n == 0)
        return;
    checkSlots(slots, n);
    const WallClock::time_point t0 = WallClock::now();
    doReadSlots(slots, n, dst);
    const std::int64_t ns = elapsedNs(t0);
    ++stats.readOps;
    stats.slotsRead += n;
    stats.bytesRead += n * recBytes;
    stats.readNs += ns;
    // Only a duration is measured, so the span is back-dated to end
    // at the report point.
    obs::traceRecordEndingNow("path-read", ns, n);
}

void
SlotBackend::writeSlots(const std::uint64_t *slots, std::size_t n,
                        const std::uint8_t *src)
{
    if (n == 0)
        return;
    checkSlots(slots, n);
    const WallClock::time_point t0 = WallClock::now();
    doWriteSlots(slots, n, src);
    const std::int64_t ns = elapsedNs(t0);
    ++stats.writeOps;
    stats.slotsWritten += n;
    stats.bytesWritten += n * recBytes;
    stats.writeNs += ns;
    obs::traceRecordEndingNow("path-write", ns, n);
}

void
SlotBackend::flush()
{
    const WallClock::time_point t0 = WallClock::now();
    doFlush();
    stats.flushNs += elapsedNs(t0);
    ++stats.flushes;
}

std::unique_ptr<SlotBackend>
makeBackend(const StorageConfig &cfg, std::uint64_t slots,
            std::uint64_t recordBytes, std::uint64_t metaBytes)
{
    switch (cfg.kind) {
      case BackendKind::Dram:
        return std::make_unique<DramBackend>(slots, recordBytes);
      case BackendKind::MmapFile:
        if (cfg.path.empty())
            LAORAM_FATAL("mmap storage backend requires a file path "
                         "(StorageConfig::path)");
        return std::make_unique<MmapFileBackend>(cfg, slots,
                                                 recordBytes,
                                                 metaBytes);
      case BackendKind::Remote:
        // Self-hosted node unless cfg.remote.endpoint names one: the
        // client backend then owns an in-process RemoteKvServer
        // composing over DRAM (or mmap when a path is configured), so
        // every caller of makeBackend gets the full RPC data path
        // without managing a server.
        return std::make_unique<RemoteKvBackend>(cfg, slots,
                                                 recordBytes,
                                                 metaBytes);
    }
    LAORAM_PANIC("unreachable backend kind");
}

} // namespace laoram::storage
