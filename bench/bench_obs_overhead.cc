/**
 * @file
 * Observability overhead gate: the same concurrent pipeline run three
 * ways — obs fully disabled, metrics enabled, span tracing enabled —
 * so the cost of the instrumentation is a measured number, not a
 * promise.
 *
 * The disabled path is the contract that matters: every pushed metric
 * site is one predicted-not-taken branch on a relaxed atomic load,
 * every span site one branch with no clock read, and the pulled
 * oram.* / storage.* series cost nothing beyond the ledgers the
 * engine keeps anyway, so a run without --metrics-out/--trace-out
 * should sit inside run-to-run noise (reported as
 * disabled.noise_fraction from two back-to-back disabled runs). The
 * enabled phases also *reconcile*: the live counters must agree
 * exactly with the pipeline report and the engine's own traffic
 * ledger — oram.logical_accesses is read after the engine is gone,
 * so this checks that a destroyed meter retires its counts — and the
 * trace dump must validate as Chrome-trace JSON with spans from both
 * pipeline stages. These are the hard CI gates (--smoke), because
 * correctness regressions hide behind noisy percentages but
 * reconciliation failures do not.
 */

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <vector>

#include "common/harness.hh"
#include "core/pipeline.hh"
#include "core/serve_source.hh"
#include "mem/traffic_meter.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/cli.hh"
#include "util/logging.hh"

using namespace laoram;

namespace {

struct RunOutcome
{
    core::PipelineReport rep;
    mem::TrafficCounters traffic;
};

RunOutcome
runOnce(std::uint64_t blocks, std::uint64_t window,
        const std::vector<oram::BlockId> &trace)
{
    core::LaoramConfig cfg;
    cfg.base.numBlocks = blocks;
    cfg.base.blockBytes = 64;
    cfg.base.seed = 5;
    cfg.superblockSize = 4;
    cfg.lookaheadWindow = window;
    cfg.lookaheadHorizon = 0; // the in-window schedule this bench prices
    core::Laoram engine(cfg);

    core::PipelineConfig pc;
    pc.windowAccesses = window;
    pc.prepThreads = 2;
    pc.mode = core::PipelineMode::Concurrent;
    core::BatchPipeline pipe(engine, pc);
    core::TraceSource source(trace, window);
    RunOutcome out;
    out.rep = pipe.run(source);
    out.traffic = engine.meter().counters();
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("bench_obs_overhead",
                   "Cost of the observability hooks: disabled vs "
                   "metrics vs tracing");
    auto blocks = args.addUint("blocks", "embedding rows", 1 << 13);
    auto accesses = args.addUint("accesses", "trace length", 1 << 15);
    auto window = args.addUint("window", "pipeline window accesses",
                               512);
    auto smoke = args.addFlag("smoke",
                              "tiny geometry for the CI gate "
                              "(reconciliation + trace validation)");
    args.parse(argc, argv);

    std::uint64_t nBlocks = *blocks, nAccesses = *accesses,
                  nWindow = *window;
    if (*smoke) {
        nBlocks = 1 << 10;
        nAccesses = 1 << 13;
        nWindow = 256;
    }

    bench::printHeader(
        "Observability overhead (metrics gate + span tracer)",
        "one concurrent pipeline, three instrumentation states");

    const auto trace =
        bench::randomTrace(nBlocks, nAccesses, 1234);
    std::cout << nAccesses << " accesses over " << nBlocks
              << " blocks, window " << nWindow << ", 2 prep threads\n\n";

    obs::setMetricsEnabled(false);
    obs::Tracer::instance().disable();
    obs::Tracer::instance().reset();

    // Warmup (first-touch page faults, thread pools) then two
    // disabled runs: their spread is the noise floor the overhead
    // numbers below should be read against.
    runOnce(nBlocks, nWindow, trace);
    const double disabled1 =
        runOnce(nBlocks, nWindow, trace).rep.wallTotalNs;
    const double disabled2 =
        runOnce(nBlocks, nWindow, trace).rep.wallTotalNs;
    const double disabledNs = std::min(disabled1, disabled2);
    const double noise =
        std::abs(disabled1 - disabled2) / std::max(disabled1, disabled2);

    // ---- Metrics enabled: time it, and reconcile the live counters
    // with the run's own report — the sampled series must be the same
    // totals the engine accounts, exactly.
    auto &reg = obs::MetricsRegistry::instance();
    obs::Counter &windowsServed =
        reg.counter("pipeline.windows_served");
    obs::Counter &logicalAccesses =
        reg.counter("oram.logical_accesses");
    const std::uint64_t windowsBefore = windowsServed.get();
    const std::uint64_t accessesBefore = logicalAccesses.get();

    obs::setMetricsEnabled(true);
    const RunOutcome metricsRun = runOnce(nBlocks, nWindow, trace);
    obs::setMetricsEnabled(false);
    const double metricsNs = metricsRun.rep.wallTotalNs;

    const std::uint64_t windowsDelta =
        windowsServed.get() - windowsBefore;
    const std::uint64_t accessesDelta =
        logicalAccesses.get() - accessesBefore;
    if (windowsDelta != metricsRun.rep.windows)
        LAORAM_FATAL("metrics reconciliation failed: counter saw ",
                     windowsDelta, " windows, report says ",
                     metricsRun.rep.windows);
    if (accessesDelta != metricsRun.traffic.logicalAccesses)
        LAORAM_FATAL("metrics reconciliation failed: counter saw ",
                     accessesDelta, " accesses, traffic ledger says ",
                     metricsRun.traffic.logicalAccesses);

    // ---- Tracing enabled: time it, then the dump must parse as
    // Chrome-trace JSON with spans from both pipeline stages (prep
    // workers + serving thread).
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.enable(1 << 15);
    const double traceNs =
        runOnce(nBlocks, nWindow, trace).rep.wallTotalNs;
    tracer.disable();

    std::ostringstream traceJson;
    tracer.writeTo(traceJson);
    std::string error;
    std::uint64_t events = 0;
    std::size_t threads = 0;
    if (!obs::validateChromeTrace(traceJson.str(), &error, &events,
                                  &threads))
        LAORAM_FATAL("trace validation failed: ", error);
    if (events == 0 || threads < 2)
        LAORAM_FATAL("trace validation failed: ", events,
                     " events from ", threads,
                     " threads (want spans from both stages)");

    const double metricsOverhead = metricsNs / disabledNs - 1.0;
    const double traceOverhead = traceNs / disabledNs - 1.0;
    std::cout << std::fixed << std::setprecision(2)
              << "disabled : " << disabledNs / 1e6
              << " ms wall (run-to-run noise " << noise * 100.0
              << "%)\n"
              << "metrics  : " << metricsNs / 1e6 << " ms wall ("
              << metricsOverhead * 100.0 << "% vs disabled)\n"
              << "tracing  : " << traceNs / 1e6 << " ms wall ("
              << traceOverhead * 100.0 << "% vs disabled, "
              << tracer.recorded() << " spans kept, "
              << tracer.dropped() << " dropped, " << threads
              << " threads)\n\n"
              << "live counters reconciled with the report ("
              << windowsDelta << " windows, " << accessesDelta
              << " accesses) and the trace validates as Chrome JSON —"
              << "\nthe disabled path is one branch per site, so its "
                 "cost stays inside the\nnoise floor above.\n";

    bench::BenchJson json("obs_overhead");
    json.add("accesses", nAccesses);
    json.add("disabled.wall_ms", disabledNs / 1e6);
    json.add("disabled.noise_fraction", noise);
    json.add("metrics.wall_ms", metricsNs / 1e6);
    json.add("metrics.overhead_fraction", metricsOverhead);
    json.add("trace.wall_ms", traceNs / 1e6);
    json.add("trace.overhead_fraction", traceOverhead);
    json.add("trace.events", events);
    json.add("trace.threads", static_cast<std::uint64_t>(threads));
    json.add("trace.dropped", tracer.dropped());
    json.write();
    return 0;
}
