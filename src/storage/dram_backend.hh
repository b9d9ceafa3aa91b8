/**
 * @file
 * DramBackend — the default in-process slot store.
 *
 * One contiguous heap array, exactly the pre-subsystem ServerStorage
 * layout. A vectored read or write is a memcpy loop between the array
 * and the caller's staging buffer; it is also the reference
 * implementation of the two-virtual SlotBackend contract.
 */

#ifndef LAORAM_STORAGE_DRAM_BACKEND_HH
#define LAORAM_STORAGE_DRAM_BACKEND_HH

#include <vector>

#include "storage/slot_backend.hh"

namespace laoram::storage {

/** Heap-resident slot array (not persistent). */
class DramBackend final : public SlotBackend
{
  public:
    DramBackend(std::uint64_t slots, std::uint64_t recordBytes);

    std::uint64_t residentBytes() const override { return raw.size(); }

  protected:
    void doReadSlots(const std::uint64_t *slots, std::size_t n,
                     std::uint8_t *dst) override;
    void doWriteSlots(const std::uint64_t *slots, std::size_t n,
                      const std::uint8_t *src) override;

  private:
    std::vector<std::uint8_t> raw;
};

} // namespace laoram::storage

#endif // LAORAM_STORAGE_DRAM_BACKEND_HH
