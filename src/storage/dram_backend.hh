/**
 * @file
 * DramBackend — the default in-process slot store.
 *
 * One contiguous heap array, exactly the pre-subsystem ServerStorage
 * layout. Addressable (mappedBase()), so ServerStorage keeps its
 * zero-copy encode/decode hot path; the staged do* overrides exist
 * for conformance testing and as the reference implementation.
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

    std::uint8_t *mappedBase() override { return raw.data(); }

    std::uint64_t residentBytes() const override { return raw.size(); }

  protected:
    void doReadSlot(std::uint64_t slot, std::uint8_t *dst) override;
    void doWriteSlot(std::uint64_t slot,
                     const std::uint8_t *src) override;

  private:
    std::vector<std::uint8_t> raw;
};

} // namespace laoram::storage

#endif // LAORAM_STORAGE_DRAM_BACKEND_HH
