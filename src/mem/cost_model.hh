/**
 * @file
 * Analytic latency/bandwidth model of the LAORAM server path.
 *
 * The paper's measured access time covers: the client sending a path id
 * to the server, the server streaming every bucket on that path out of
 * DDR4, the transfer back over the host link (PCIe) into the trainer
 * GPU's stash, and client-side metadata work (position-map update,
 * stash bookkeeping) — and the same in reverse for the write-back
 * (§VIII-B). We model each leg with a fixed latency plus a
 * bytes/bandwidth term. Absolute numbers are approximations of the
 * paper's testbed (DDR4-2400 + PCIe 3.0, fixed in cost_model.cc); every
 * reported result is a *ratio* between engines run under the identical
 * model, which is what the paper reports too.
 *
 * All engines (PathORAM, PrORAM, RingORAM, LAORAM) charge their server
 * traffic through these functions (via TrafficMeter), so engine
 * comparisons are apples to apples.
 */

#ifndef LAORAM_MEM_COST_MODEL_HH
#define LAORAM_MEM_COST_MODEL_HH

#include <cstdint>

namespace laoram::mem {

/**
 * Cost of reading one path (or a RingORAM slot set) of @p bytes
 * spread over @p blocks blocks.
 */
double pathReadNs(std::uint64_t bytes, std::uint64_t blocks);

/** Cost of writing a path back. Symmetric with reads on DDR4. */
double pathWriteNs(std::uint64_t bytes, std::uint64_t blocks);

/**
 * A dummy (background-eviction) access is a full read plus write of
 * one random path.
 */
double dummyAccessNs(std::uint64_t bytes, std::uint64_t blocks);

} // namespace laoram::mem

#endif // LAORAM_MEM_COST_MODEL_HH
