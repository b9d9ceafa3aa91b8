#include "mem/traffic_meter.hh"

#include <ostream>
#include <vector>

#include "mem/cost_model.hh"

namespace laoram::mem {

namespace {
using C = TrafficCounters;
} // namespace

const C::Field C::kFields[11] = {
    {"logical_accesses", "application block requests", &C::logicalAccesses},
    {"path_reads", "real path fetches", &C::pathReads},
    {"path_writes", "path write-backs", &C::pathWrites},
    {"dummy_reads", "background-eviction accesses", &C::dummyReads},
    {"blocks_read", "physical block slots read", &C::blocksRead},
    {"blocks_written", "physical block slots written", &C::blocksWritten},
    {"bytes_read", "server bytes read", &C::bytesRead},
    {"bytes_written", "server bytes written", &C::bytesWritten},
    {"stash_peak", "stash high-water mark over all engines", &C::stashPeak},
    {"stash_hits", "requests served from stash", &C::stashHits},
    {"reshuffles", "RingORAM bucket reshuffles", &C::reshuffles},
};

namespace {

/** Every meter's counters, pulled as the live oram.* series. */
obs::LedgerSet<C> &
liveTraffic()
{
    static obs::LedgerSet<C> &set = []() -> obs::LedgerSet<C> & {
        std::vector<obs::LedgerField<C>> fields;
        for (const C::Field &f : C::kFields)
            fields.emplace_back(f.name, f.help, f.member,
                                f.member == &C::stashPeak);
        return obs::MetricsRegistry::instance().ledgers(
            "oram.", std::move(fields));
    }();
    return set;
}

} // namespace

double
TrafficCounters::dummyReadsPerAccess() const
{
    if (logicalAccesses == 0)
        return 0.0;
    return static_cast<double>(dummyReads)
        / static_cast<double>(logicalAccesses);
}

double
TrafficCounters::pathReadsPerAccess() const
{
    if (logicalAccesses == 0)
        return 0.0;
    return static_cast<double>(pathReads)
        / static_cast<double>(logicalAccesses);
}

TrafficCounters
TrafficCounters::since(const TrafficCounters &start) const
{
    TrafficCounters d;
    for (const Field &f : kFields)
        d.*f.member = this->*f.member - start.*f.member;
    d.stashPeak = stashPeak; // high-water mark is not interval-additive
    return d;
}

TrafficCounters &
TrafficCounters::operator+=(const TrafficCounters &other)
{
    for (const Field &f : kFields)
        this->*f.member += other.*f.member;
    return *this;
}

TrafficMeter::TrafficMeter()
{
    liveTraffic().attach(&c);
}

TrafficMeter::~TrafficMeter()
{
    liveTraffic().detach(&c);
}

void
TrafficMeter::recordBatchedPathReads(std::uint64_t paths,
                                     std::uint64_t bytes,
                                     std::uint64_t blocks)
{
    c.pathReads += paths;
    c.blocksRead += blocks;
    c.bytesRead += bytes;
    clk.advanceNs(pathReadNs(bytes, blocks));
}

void
TrafficMeter::recordBatchedPathWrites(std::uint64_t paths,
                                      std::uint64_t bytes,
                                      std::uint64_t blocks)
{
    c.pathWrites += paths;
    c.blocksWritten += blocks;
    c.bytesWritten += bytes;
    clk.advanceNs(pathWriteNs(bytes, blocks));
}

void
TrafficMeter::recordDummyAccess(std::uint64_t bytes, std::uint64_t blocks)
{
    ++c.dummyReads;
    c.blocksRead += blocks;
    c.bytesRead += bytes;
    c.blocksWritten += blocks;
    c.bytesWritten += bytes;
    clk.advanceNs(dummyAccessNs(bytes, blocks));
}

void
TrafficMeter::recordReshuffle(std::uint64_t bytesRead,
                              std::uint64_t blocksRead,
                              std::uint64_t bytesWritten,
                              std::uint64_t blocksWritten)
{
    ++c.reshuffles;
    c.blocksRead += blocksRead;
    c.bytesRead += bytesRead;
    c.blocksWritten += blocksWritten;
    c.bytesWritten += bytesWritten;
    clk.advanceNs(pathReadNs(bytesRead, blocksRead)
                  + pathWriteNs(bytesWritten, blocksWritten));
}

void
TrafficMeter::observeStashSize(std::uint64_t blocks)
{
    if (blocks > c.stashPeak)
        c.stashPeak = blocks;
}

void
TrafficMeter::reset()
{
    liveTraffic().rebase(&c, TrafficCounters{});
    clk.reset();
}

void
TrafficMeter::restoreState(const TrafficCounters &counters,
                           std::uint64_t clockPs)
{
    liveTraffic().rebase(&c, counters);
    clk.reset();
    clk.advancePs(clockPs);
}

void
TrafficMeter::printSummary(std::ostream &os, const char *label) const
{
    os << label << ": accesses=" << c.logicalAccesses
       << " pathReads=" << c.pathReads
       << " pathWrites=" << c.pathWrites
       << " dummyReads=" << c.dummyReads
       << " MBmoved=" << static_cast<double>(c.totalBytes()) / 1.0e6
       << " stashPeak=" << c.stashPeak
       << " simMs=" << clk.milliseconds() << "\n";
}

} // namespace laoram::mem
