#include "storage/dram_backend.hh"

#include <cstring>

namespace laoram::storage {

DramBackend::DramBackend(std::uint64_t slots, std::uint64_t recordBytes)
    : SlotBackend(slots, recordBytes, "dram"), raw(slots * recordBytes, 0)
{
}

void
DramBackend::doReadSlots(const std::uint64_t *slots, std::size_t n,
                         std::uint8_t *dst)
{
    for (std::size_t i = 0; i < n; ++i)
        std::memcpy(dst + i * recBytes, raw.data() + slots[i] * recBytes,
                    recBytes);
}

void
DramBackend::doWriteSlots(const std::uint64_t *slots, std::size_t n,
                          const std::uint8_t *src)
{
    for (std::size_t i = 0; i < n; ++i)
        std::memcpy(raw.data() + slots[i] * recBytes, src + i * recBytes,
                    recBytes);
}

} // namespace laoram::storage
