#!/usr/bin/env python3
"""Self-test of the LAORAM benchmark at tiny size.

Usage, from the root of the repository:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs perfbench/run.py at
--scale tiny, untraced and traced, and checks that the run is correct
and emits exactly the end-to-end (resp. per-layer) metric names of
BENCHMARK.json with their units, and that a traced run measures the
layers its workload exercises (MEASURED). It then runs each workload
untraced with --inject-fault, which perturbs one expected output, and
checks that the output check fails (correct false, failed > 0,
success_rate below 1), so a zero error rate cannot pass vacuously.
Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, inject=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny"]
    if inject:
        cmd.append("--inject-fault")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=300)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d" % (" ".join(cmd), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_names(result, specs, label):
    want = {m["name"]: m["unit"] for m in specs}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        raise AssertionError("%s: missing %s, extra %s, wrong unit %s"
                             % (label, missing, extra, wrong))
    for name, v in result["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            raise AssertionError("%s: %s is not a number" % (label, name))


# Per-layer metrics that must be non-zero in a workload's traced run,
# so that each layer the workload exercises is really measured there.
MEASURED = {
    "train-kaggle": ("core.preprocessor.ns_per_access",
                     "core.laoram_client.self_ns_per_access",
                     "storage.read_ns_per_slot"),
    "serve-zipf-cache": ("cache.hit_rate", "cache.evictions_per_op_uniform",
                         "serve.window_fill_frac", "net.rpc_us"),
}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            r = run(name, trace)
            label = "%s --trace %d" % (name, trace)
            check_names(r, specs, label)
            if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                raise AssertionError("%s: output check failed: %s"
                                     % (label, {k: r[k] for k in
                                                ("correct", "attempted",
                                                 "failed")}))
            if trace:
                zero = [k for k in MEASURED.get(name, ())
                        if not r["metrics"][k]["value"] > 0]
                if zero:
                    raise AssertionError("%s: layer not measured: %s"
                                         % (label, zero))
            print("ok   %s" % label)
        r = run(name, 0, inject=True)
        if (r["correct"] or r["failed"] == 0
                or r["metrics"]["success_rate"]["value"] >= 1.0):
            raise AssertionError("%s: injected fault was not detected" % name)
        print("ok   %s --inject-fault detected (%d of %d failed)"
              % (name, r["failed"], r["attempted"]))
    print("selftest passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (AssertionError, subprocess.TimeoutExpired, ValueError) as e:
        print("selftest FAILED: %s" % e, file=sys.stderr)
        sys.exit(1)
