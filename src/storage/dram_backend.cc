#include "storage/dram_backend.hh"

#include <cstring>

namespace laoram::storage {

DramBackend::DramBackend(std::uint64_t slots, std::uint64_t recordBytes)
    : SlotBackend(slots, recordBytes, "dram"), raw(slots * recordBytes, 0)
{
}

void
DramBackend::doReadSlot(std::uint64_t slot, std::uint8_t *dst)
{
    std::memcpy(dst, raw.data() + slot * recBytes, recBytes);
}

void
DramBackend::doWriteSlot(std::uint64_t slot, const std::uint8_t *src)
{
    std::memcpy(raw.data() + slot * recBytes, src, recBytes);
}

} // namespace laoram::storage
