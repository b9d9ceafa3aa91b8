/**
 * @file
 * Machine-readable end-of-run reports: serialise the structs the run
 * loops already return (PipelineReport, ShardedPipelineReport,
 * traffic counters, latency percentiles) as one JSON document, so an
 * example invoked with --report-json feeds dashboards and scripted
 * comparisons without scraping its stdout tables.
 *
 * Schema: a top-level object with "schema" ("laoram.run_report.v2"),
 * "kind" ("pipeline" or "sharded"), a "pipeline" object mirroring
 * PipelineReport field-for-field in snake_case (with "latency"
 * nested; its "sim_ns" is the run's simulated ORAM time), an
 * optional "traffic" object of TrafficCounters, and for sharded runs
 * the max-over-shards "sim_ns" plus a "shards" array.
 */

#ifndef LAORAM_OBS_RUN_REPORT_HH
#define LAORAM_OBS_RUN_REPORT_HH

#include <string>

namespace laoram {

struct LatencyReport;

namespace core {
struct PipelineReport;
struct ShardedPipelineReport;
} // namespace core

namespace cache {
struct CacheStats;
} // namespace cache

namespace mem {
struct TrafficCounters;
} // namespace mem

namespace util {
class JsonWriter;
} // namespace util

namespace obs {

/** Emit @p rep as a JSON object on @p w (composable building block). */
void writePipelineReport(util::JsonWriter &w,
                         const core::PipelineReport &rep);

/** Emit @p rep as a JSON object on @p w. */
void writeLatencyReport(util::JsonWriter &w, const LatencyReport &rep);

/** Emit @p c as a JSON object on @p w. */
void writeTrafficCounters(util::JsonWriter &w,
                          const mem::TrafficCounters &c);

/** Emit hot-cache counters (+ hit_rate) as a JSON object on @p w. */
void writeCacheStats(util::JsonWriter &w, const cache::CacheStats &c);

/**
 * Write a kind="pipeline" run report to @p path; @p traffic (the
 * engine's counters) is included when non-null. Warns and returns
 * false on I/O failure — a report is telemetry, never worth killing
 * a finished run over.
 */
bool writeRunReportJson(const std::string &path,
                        const core::PipelineReport &rep,
                        const mem::TrafficCounters *traffic = nullptr);

/** Write a kind="sharded" run report (aggregate + per-shard array). */
bool writeRunReportJson(const std::string &path,
                        const core::ShardedPipelineReport &rep);

} // namespace obs
} // namespace laoram

#endif // LAORAM_OBS_RUN_REPORT_HH
