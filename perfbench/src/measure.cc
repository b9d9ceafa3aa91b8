#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "bench.hh"
#include "obs/trace.hh"

using namespace laoram;

namespace perfbench {

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"setup_s", "s"},
        {"throughput_ops_s", "ops/s"},
        {"latency_p50_us", "us"},
        {"latency_p99_us", "us"},
        {"success_rate", "frac"},
        {"server_bytes_per_access", "B"},
        {"sim_ns_per_access", "ns"},
        {"server_bytes_per_row_byte", "x"},
        {"peak_rss_mib", "MiB"},
    };
    return specs;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"core.preprocessor.ns_per_access", "ns"},
        {"core.preprocessor.future_linked_frac", "frac"},
        {"core.pipeline.serve_wait_frac", "frac"},
        {"core.laoram_client.serve_ns_per_access", "ns"},
        {"core.laoram_client.self_ns_per_access", "ns"},
        {"oram.path_reads_per_access", "count"},
        {"oram.dummy_reads_per_access", "count"},
        {"oram.stash_peak_blocks", "count"},
        {"oram.slots_per_path_read", "count"},
        {"storage.read_ns_per_slot", "ns"},
        {"storage.write_ns_per_slot", "ns"},
        {"storage.busy_frac", "frac"},
        {"storage.calls_per_access", "count"},
        {"cache.hit_rate", "frac"},
        {"cache.admission_hit_frac", "frac"},
        {"cache.writeback_coalesced_per_update", "count"},
        {"cache.evictions_per_op", "count"},
        {"cache.evictions_per_op_uniform", "count"},
        {"serve.submit_block_us_p99", "us"},
        {"serve.window_fill_frac", "frac"},
        {"serve.stall_frac", "frac"},
        {"net.rpc_us", "us"},
        {"net.reconnects", "count"},
        {"obs.trace_overhead_frac", "frac"},
        {"obs.trace_gap_frac", "frac"},
    };
    return specs;
}

double
quantile(std::vector<double> &v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
sliceRate(const std::vector<std::int64_t> &eventNs,
                const std::vector<std::uint64_t> &counts,
                std::int64_t startNs, std::int64_t endNs)
{
    if (endNs <= startNs)
        return 0.0;
    const double width = static_cast<double>(endNs - startNs)
                         / static_cast<double>(kRateSlices);
    std::vector<double> perSlice(kRateSlices, 0.0);
    // Slice-relative position of a time, clamped into the phase.
    auto at = [&](std::int64_t ns) {
        return std::clamp(static_cast<double>(ns - startNs) / width, 0.0,
                          static_cast<double>(kRateSlices));
    };
    double from = 0.0;
    for (std::size_t i = 0; i < eventNs.size(); ++i) {
        const double to = at(eventNs[i]);
        const double n = static_cast<double>(counts[i]);
        if (to <= from) {
            const auto s = static_cast<std::size_t>(to);
            perSlice[std::min(s, kRateSlices - 1)] += n;
            continue;
        }
        for (auto s = static_cast<std::size_t>(from);
             s < kRateSlices && static_cast<double>(s) < to; ++s) {
            const double lo = std::max(from, static_cast<double>(s));
            const double hi = std::min(to, static_cast<double>(s + 1));
            perSlice[s] += n * (hi - lo) / (to - from);
        }
        from = to;
    }
    for (double &n : perSlice)
        n /= width / 1e9;
    return quantile(perSlice, 0.75);
}

double
slicedQuantile(const std::vector<double> &inOrder, double q)
{
    const std::size_t groups =
        std::max<std::size_t>(inOrder.size() / kMinGroupSamples, 1);
    std::vector<double> perGroup;
    for (std::size_t g = 0; g < groups; ++g) {
        std::vector<double> group(
            inOrder.begin() + g * inOrder.size() / groups,
            inOrder.begin() + (g + 1) * inOrder.size() / groups);
        perGroup.push_back(quantile(group, q));
    }
    return quantile(perGroup, 0.25);
}

double
peakRssMib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kib = 0.0;
            fields >> kib;
            return kib / 1024.0;
        }
    }
    return 0.0;
}

std::int64_t
beginTracing()
{
    // Large enough that the benchmark's own spans and the program's
    // internal spans of one traced phase fit without wrapping.
    obs::Tracer::instance().reset();
    obs::Tracer::instance().enable(std::size_t{1} << 21);
    return obs::traceNowNs() - nowNs();
}

bool
finishTracing(const std::string &path, std::uint64_t expectedSpans,
              std::string *error)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.disable();
    const std::uint64_t dropped = tracer.dropped();
    if (path.empty()) {
        *error = "no trace output path";
        return false;
    }
    if (!tracer.writeFile(path)) {
        *error = "cannot write " + path;
        return false;
    }
    tracer.reset();
    if (dropped != 0) {
        *error = "tracer dropped " + std::to_string(dropped) + " events";
        return false;
    }
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    std::uint64_t complete = 0;
    if (!obs::validateChromeTrace(buf.str(), error, &complete))
        return false;
    if (complete < expectedSpans) {
        *error = "trace holds " + std::to_string(complete)
                 + " complete events, expected at least "
                 + std::to_string(expectedSpans);
        return false;
    }
    return true;
}

} // namespace perfbench
