/**
 * @file
 * Shared plumbing of the LAORAM benchmark: run options, the result a
 * workload hands back, the metric table, and small measurement
 * helpers (percentiles, sliced rates, peak RSS, span bookkeeping).
 *
 * A workload is a function RunOptions -> Result. It builds its inputs
 * from the seed before any timing starts, measures for
 * RunOptions::seconds, checks the program's outputs, and fills either
 * the end-to-end metrics (traced == false) or the per-layer metrics
 * (traced == true). main.cc prints the Result as the one JSON line
 * the benchmark contract asks for.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Workload sizing: full for measurement, tiny for the self-test. */
enum class Scale
{
    Full,
    Tiny,
};

struct RunOptions
{
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
    Scale scale = Scale::Full;

    /** Perturb one expectation so the output check must fail. */
    bool injectFault = false;

    /** Chrome-trace file the traced run writes ("" = none). */
    std::string traceOut;
};

/** Outcome of one workload run (see file comment). */
struct Result
{
    std::uint64_t attempted = 0; ///< logical row ops attempted
    std::uint64_t failed = 0;    ///< failed, rejected or mismatched
    std::map<std::string, double> metrics; ///< name -> value
    std::vector<std::string> notes;        ///< human-readable lines
};

/** Unit of every metric the benchmark can emit, by name. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics (untraced run), in output order. */
const std::vector<MetricSpec> &endToEndMetrics();

/** Per-layer metrics (traced run), in output order. */
const std::vector<MetricSpec> &perLayerMetrics();

Result runTrainKaggle(const RunOptions &opt);
Result runServeZipfCache(const RunOptions &opt);

// ---------------------------------------------------------------- helpers

/** Monotonic nanoseconds (steady clock). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Linear-interpolated quantile @p q in [0, 1]; sorts @p v. */
double quantile(std::vector<double> &v, double q);

/** Median (quantile 0.5); sorts @p v. */
double median(std::vector<double> &v);

/*
 * Other load on a shared host only ever slows a run, and it comes and
 * goes over seconds. The two estimators below therefore cut a run into
 * pieces and report the quartile of the pieces on the fast side: a
 * slow-down of the program moves every piece and so the quartile, a
 * disturbance that covers under three quarters of the run does not.
 */

/** Equal time slices a timed phase is cut into for its throughput. */
constexpr std::size_t kRateSlices = 16;

/**
 * Throughput of [startNs, endNs). @p eventNs (ascending) and
 * @p counts are parallel: counts[i] items completed at eventNs[i].
 * Each event's items are spread evenly over the time since the
 * previous event (or startNs), the phase is cut into kRateSlices equal
 * slices, and the upper quartile of the per-slice rates, in items per
 * second, is returned. Spreading keeps the slice rates free of
 * quantisation when events are few (offline windows) or bunched
 * (online batch completions).
 */
double sliceRate(const std::vector<std::int64_t> &eventNs,
                       const std::vector<std::uint64_t> &counts,
                       std::int64_t startNs, std::int64_t endNs);

/** Fewest latency samples in one group of slicedQuantile. */
constexpr std::size_t kMinGroupSamples = 1000;

/**
 * Quantile @p q of latency samples given in completion order: the
 * samples are cut into max(n / kMinGroupSamples, 1) consecutive groups
 * of equal count, each group's quantile is taken, and the lower
 * quartile over groups is returned. Every group keeps at least 1000
 * samples, so its p99 has at least ten samples beyond it.
 */
double slicedQuantile(const std::vector<double> &inOrder, double q);

/** Peak resident set size of this process, MiB (VmHWM). */
double peakRssMib();

/** a / b, or 0 when b == 0. */
inline double
ratio(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

/**
 * Enable the process tracer for a traced phase. Returns the offset
 * that maps nowNs() onto the tracer's clock.
 */
std::int64_t beginTracing();

/**
 * Disable tracing, write the Chrome trace to @p path, and validate
 * it with obs::validateChromeTrace. Returns false (and a reason in
 * @p error) when the file is missing, malformed, holds fewer complete
 * events than the @p expectedSpans the benchmark recorded, or the
 * tracer dropped events.
 */
bool finishTracing(const std::string &path, std::uint64_t expectedSpans,
                   std::string *error);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
