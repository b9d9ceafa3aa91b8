#include "obs/run_report.hh"

#include <fstream>
#include <functional>

#include "cache/hot_cache.hh"
#include "core/pipeline.hh"
#include "core/sharded_laoram.hh"
#include "mem/traffic_meter.hh"
#include "util/json_writer.hh"
#include "util/latency_histogram.hh"
#include "util/logging.hh"

namespace laoram::obs {

void
writeLatencyReport(util::JsonWriter &w, const LatencyReport &rep)
{
    w.beginObject();
    w.field("requests", rep.requests);
    w.field("mean_ns", rep.meanNs);
    w.field("p50_ns", rep.p50Ns);
    w.field("p90_ns", rep.p90Ns);
    w.field("p99_ns", rep.p99Ns);
    w.field("p999_ns", rep.p999Ns);
    w.field("max_ns", rep.maxNs);
    w.field("dropped_negative", rep.droppedNegative);
    w.endObject();
}

void
writeCacheStats(util::JsonWriter &w, const cache::CacheStats &c)
{
    w.beginObject();
    w.field("hits", c.hits);
    w.field("misses", c.misses);
    w.field("hit_rate", c.hitRate());
    w.field("evictions", c.evictions);
    w.field("writeback_coalesced", c.writebackCoalesced);
    w.field("admission_hits", c.admissionHits);
    w.field("resident_rows", c.residentRows);
    w.field("resident_bytes", c.residentBytes);
    w.field("capacity_rows", c.capacityRows);
    w.endObject();
}

void
writeTrafficCounters(util::JsonWriter &w,
                     const mem::TrafficCounters &c)
{
    w.beginObject();
    for (const mem::TrafficCounters::Field &f : c.kFields)
        w.field(f.name, c.*f.member);
    w.endObject();
}

void
writePipelineReport(util::JsonWriter &w, const core::PipelineReport &rep)
{
    w.beginObject();
    w.field("windows", rep.windows);
    w.field("sim_ns", rep.simNs);
    w.field("wall_prep_ns", rep.wallPrepNs);
    w.field("wall_serve_ns", rep.wallServeNs);
    w.field("wall_total_ns", rep.wallTotalNs);
    w.field("wall_fill_ns", rep.wallFillNs);
    w.field("wall_stall_ns", rep.wallStallNs);
    w.field("wall_link_pass_ns", rep.wallLinkPassNs);
    w.field("wall_reorder_stall_ns", rep.wallReorderStallNs);
    w.field("prep_threads",
            static_cast<std::uint64_t>(rep.prepThreads));
    w.key("prep_thread_busy_ns").beginArray();
    for (double v : rep.prepThreadBusyNs)
        w.value(v);
    w.endArray();
    w.key("prep_thread_utilization").beginArray();
    for (double v : rep.prepThreadUtilization)
        w.value(v);
    w.endArray();
    w.key("prep_thread_windows").beginArray();
    for (std::uint64_t v : rep.prepThreadWindows)
        w.value(v);
    w.endArray();
    w.field("wall_io_ns", rep.wallIoNs);
    w.field("io_serve_fraction", rep.ioServeFraction);
    w.field("measured_prep_hidden_fraction",
            rep.measuredPrepHiddenFraction);
    w.key("latency");
    writeLatencyReport(w, rep.latency);
    w.key("cache");
    writeCacheStats(w, rep.cache);
    w.endObject();
}

namespace {

constexpr const char *kSchema = "laoram.run_report.v2";

bool
writeDocument(const std::string &path,
              const std::function<void(util::JsonWriter &)> &body)
{
    std::ofstream os(path);
    if (!os) {
        warn("report: cannot open '", path, "' for writing");
        return false;
    }
    util::JsonWriter w(os, 2);
    body(w);
    os << '\n';
    os.flush();
    if (!os) {
        warn("report: write to '", path, "' failed");
        return false;
    }
    return true;
}

} // namespace

bool
writeRunReportJson(const std::string &path,
                   const core::PipelineReport &rep,
                   const mem::TrafficCounters *traffic)
{
    return writeDocument(path, [&](util::JsonWriter &w) {
        w.beginObject();
        w.field("schema", kSchema);
        w.field("kind", "pipeline");
        w.key("pipeline");
        writePipelineReport(w, rep);
        if (traffic != nullptr) {
            w.key("traffic");
            writeTrafficCounters(w, *traffic);
        }
        w.endObject();
    });
}

bool
writeRunReportJson(const std::string &path,
                   const core::ShardedPipelineReport &rep)
{
    return writeDocument(path, [&](util::JsonWriter &w) {
        w.beginObject();
        w.field("schema", kSchema);
        w.field("kind", "sharded");
        w.key("pipeline");
        writePipelineReport(w, rep.aggregate);
        w.key("traffic");
        writeTrafficCounters(w, rep.traffic);
        w.field("sim_ns", rep.simNs);
        w.key("shards").beginArray();
        for (const core::ShardReport &shard : rep.shards) {
            w.beginObject();
            w.field("accesses", shard.accesses);
            w.key("pipeline");
            writePipelineReport(w, shard.pipeline);
            w.key("traffic");
            writeTrafficCounters(w, shard.traffic);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    });
}

} // namespace laoram::obs
