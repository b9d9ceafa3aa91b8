/**
 * @file
 * Traffic accounting shared by every ORAM engine.
 *
 * Each engine owns a TrafficMeter and reports every server interaction
 * through it; the meter feeds both the cost model (simulated time) and
 * the paper's traffic metrics (Fig. 9 bandwidth reduction, Table II
 * dummy reads per access, Fig. 8 stash growth).
 *
 * The counters are also the live oram.* metrics: every meter attaches
 * its TrafficCounters to the registry's "oram." LedgerSet for its
 * lifetime, and the sampler pulls them at snapshot time. There is no
 * second copy to keep in step.
 */

#ifndef LAORAM_MEM_TRAFFIC_METER_HH
#define LAORAM_MEM_TRAFFIC_METER_HH

#include <cstdint>
#include <iosfwd>

#include "mem/sim_clock.hh"
#include "obs/metrics.hh"

namespace laoram::mem {

/**
 * All traffic counters (value type; freely copyable). Single-writer
 * relaxed fields, so the metrics sampler may read a live meter's
 * counters from another thread.
 */
struct TrafficCounters
{
    using Count = obs::Relaxed<std::uint64_t>;

    Count logicalAccesses = 0; ///< application block requests
    Count pathReads = 0;       ///< real path fetches
    Count pathWrites = 0;      ///< path write-backs
    Count dummyReads = 0;      ///< background-eviction accesses
    Count blocksRead = 0;      ///< physical block slots read
    Count blocksWritten = 0;   ///< physical block slots written
    Count bytesRead = 0;
    Count bytesWritten = 0;
    Count stashPeak = 0;       ///< max blocks resident in stash
    Count stashHits = 0;       ///< requests served from stash
    Count reshuffles = 0;      ///< RingORAM bucket reshuffles

    /** One counter: its snake_case name and help text. */
    struct Field
    {
        const char *name;
        const char *help;
        Count TrafficCounters::*member;
    };

    /**
     * Every counter in declaration order, which is also the
     * checkpoint and run-report order: since(), +=, the snapshot
     * codec, the run report and the live oram.* series all walk it.
     */
    static const Field kFields[11];

    std::uint64_t totalBytes() const { return bytesRead + bytesWritten; }

    double dummyReadsPerAccess() const;
    double pathReadsPerAccess() const;

    /** Element-wise difference (this - start), for interval metrics. */
    TrafficCounters since(const TrafficCounters &start) const;

    /**
     * Element-wise accumulation (shard aggregation). stashPeak sums
     * too: concurrent shard stashes are resident simultaneously, so
     * the summed peaks bound total client stash memory.
     */
    TrafficCounters &operator+=(const TrafficCounters &other);
};

/**
 * Live meter: counters + simulated clock, advanced through the cost
 * model (cost_model.hh).
 *
 * Engines call the record*() methods; harnesses read counters() and
 * elapsed time.
 */
class TrafficMeter
{
  public:
    TrafficMeter();
    ~TrafficMeter();

    TrafficMeter(const TrafficMeter &) = delete;
    TrafficMeter &operator=(const TrafficMeter &) = delete;

    void recordLogicalAccess() { ++c.logicalAccesses; }

    /** Credit @p n logical accesses at once (superblock bins). */
    void recordLogicalAccesses(std::uint64_t n) { c.logicalAccesses += n; }

    void recordStashHit() { ++c.stashHits; }

    /** A real path read of @p blocks slots totalling @p bytes. */
    void
    recordPathRead(std::uint64_t bytes, std::uint64_t blocks)
    {
        recordBatchedPathReads(1, bytes, blocks);
    }

    /** A path write-back. */
    void
    recordPathWrite(std::uint64_t bytes, std::uint64_t blocks)
    {
        recordBatchedPathWrites(1, bytes, blocks);
    }

    /**
     * A batched read of @p paths paths whose node-union totalled
     * @p blocks slots / @p bytes (shared prefixes fetched once). The
     * burst pays one request latency.
     */
    void recordBatchedPathReads(std::uint64_t paths, std::uint64_t bytes,
                                std::uint64_t blocks);
    /** Batched write-back of a path union. */
    void recordBatchedPathWrites(std::uint64_t paths,
                                 std::uint64_t bytes,
                                 std::uint64_t blocks);
    /** A dummy background-eviction access (full read + write). */
    void recordDummyAccess(std::uint64_t bytes, std::uint64_t blocks);
    /**
     * A RingORAM bucket reshuffle: @p blocksRead valid blocks read and
     * @p blocksWritten slots rewritten, charged without touching the
     * path-read/path-write counters.
     */
    void recordReshuffle(std::uint64_t bytesRead, std::uint64_t blocksRead,
                         std::uint64_t bytesWritten,
                         std::uint64_t blocksWritten);
    /** Track the stash high-water mark. */
    void observeStashSize(std::uint64_t blocks);

    const TrafficCounters &counters() const { return c; }
    const SimClock &clock() const { return clk; }

    /** Zero the counters and clock (live oram.* totals keep theirs). */
    void reset();

    /**
     * Checkpoint support: overwrite all counters and rewind the
     * simulated clock to @p clockPs picoseconds, so a restored
     * engine's meter continues exactly where the snapshot left off.
     * The live oram.* totals neither jump nor rewind: they count only
     * what this process executed.
     */
    void restoreState(const TrafficCounters &counters,
                      std::uint64_t clockPs);

    /** Human-readable one-block summary. */
    void printSummary(std::ostream &os, const char *label) const;

  private:
    SimClock clk;
    TrafficCounters c;
};

} // namespace laoram::mem

#endif // LAORAM_MEM_TRAFFIC_METER_HH
