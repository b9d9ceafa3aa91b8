/**
 * @file
 * laoram_perfbench: runs one named workload and prints its result as
 * the last line of standard output, one JSON object:
 *
 *   {"correct": true, "attempted": N, "failed": 0,
 *    "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}
 *
 * Untraced runs (--trace 0) report the end-to-end metrics; traced runs
 * (--trace 1) report the per-layer metrics and write a Chrome trace to
 * --trace-out. See perfbench/README.md for the workloads and metrics.
 */

#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>

#include "bench.hh"
#include "util/cli.hh"

using namespace perfbench;

int
main(int argc, char **argv)
{
    laoram::ArgParser args("laoram_perfbench",
                           "LAORAM benchmark: one workload per run");
    auto workload = args.addString(
        "workload",
        "train-kaggle | serve-zipf-cache",
        "");
    auto seed = args.addUint("seed", "input seed", 1);
    auto seconds = args.addDouble("seconds", "measured seconds", 40.0);
    auto trace = args.addUint("trace", "1 = traced per-layer run", 0);
    auto scale = args.addString("scale", "full | tiny (self-test)", "full");
    auto inject = args.addFlag(
        "inject-fault", "perturb one expectation (self-test)");
    auto traceOut = args.addString("trace-out",
                                   "Chrome trace file of a traced run",
                                   "perfbench-trace.json");
    args.parse(argc, argv);

    RunOptions opt;
    opt.seed = *seed;
    opt.seconds = *seconds;
    opt.traced = *trace != 0;
    opt.injectFault = *inject;
    opt.traceOut = *traceOut;
    if (*scale == "tiny")
        opt.scale = Scale::Tiny;
    else if (*scale != "full") {
        std::cerr << "unknown --scale " << *scale << "\n";
        return 2;
    }
    if (!(opt.seconds > 0.0) || *trace > 1) {
        std::cerr << "need --seconds > 0 and --trace 0|1\n";
        return 2;
    }

    Result r;
    if (*workload == "train-kaggle")
        r = runTrainKaggle(opt);
    else if (*workload == "serve-zipf-cache")
        r = runServeZipfCache(opt);
    else {
        std::cerr << "unknown --workload '" << *workload << "'\n";
        return 2;
    }

    for (const std::string &note : r.notes)
        std::cout << "# " << *workload << ": " << note << "\n";

    const auto &specs = opt.traced ? perLayerMetrics() : endToEndMetrics();
    std::string json = "{\"correct\": ";
    json += r.failed == 0 && r.attempted > 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(r.attempted);
    json += ", \"failed\": " + std::to_string(r.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const MetricSpec &m : specs) {
        const auto it = r.metrics.find(m.name);
        const double v = it == r.metrics.end() ? 0.0 : it->second;
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
        json += first ? "" : ", ";
        json += "\"" + std::string(m.name) + "\": {\"value\": " + buf
                + ", \"unit\": \"" + m.unit + "\"}";
        first = false;
    }
    json += "}}";
    std::cout << json << std::endl;
    return 0;
}
