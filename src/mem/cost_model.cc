#include "mem/cost_model.hh"

namespace laoram::mem {

namespace {

constexpr double kDramLatencyNs = 60.0;     ///< per server request
constexpr double kDramBandwidthGBps = 19.2; ///< DDR4-2400, one channel
constexpr double kLinkLatencyNs = 1200.0;   ///< client<->server round trip
constexpr double kLinkBandwidthGBps = 12.0; ///< effective PCIe 3.0 x16
constexpr double kClientPerBlockNs = 8.0;   ///< stash/posmap work per block

double
transferNs(std::uint64_t bytes)
{
    const double b = static_cast<double>(bytes);
    // GB/s == bytes/ns, so the division below is already in ns.
    return b / kDramBandwidthGBps + b / kLinkBandwidthGBps;
}

} // namespace

double
pathReadNs(std::uint64_t bytes, std::uint64_t blocks)
{
    return kDramLatencyNs + kLinkLatencyNs + transferNs(bytes)
        + kClientPerBlockNs * static_cast<double>(blocks);
}

double
pathWriteNs(std::uint64_t bytes, std::uint64_t blocks)
{
    // Write-back overlaps no client round trip (the path id is already
    // known server-side), so it pays DRAM latency + transfer only.
    return kDramLatencyNs + transferNs(bytes)
        + kClientPerBlockNs * static_cast<double>(blocks);
}

double
dummyAccessNs(std::uint64_t bytes, std::uint64_t blocks)
{
    return pathReadNs(bytes, blocks) + pathWriteNs(bytes, blocks);
}

} // namespace laoram::mem
