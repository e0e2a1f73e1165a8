#!/usr/bin/env python3
"""Smoke test: every workload at tiny sizes, untraced and traced.

Run from the repository root:

    python3 perfbench/smoke.py

For each workload and each --trace mode it runs perfbench/run.py with
--size tiny and checks that the result line carries every end-to-end
(trace 0) or per-layer (trace 1) metric named in BENCHMARK.json with its
unit, that the run is correct with no failed ops, and that the report line
records the environment with oversubscribed false. The simulator workloads
also run --check-harness, so every cell's simulated statistics must equal
O2_experiments.Harness.run's. Exits non-zero on the first failure.
"""

import json
import subprocess
import sys

REPORT_KEYS = {"workload", "seed", "size", "nproc", "ocaml", "commit",
               "domains", "oversubscribed", "failed_frac", "samples",
               "checks"}


def fail(msg):
    print("smoke: FAIL: " + msg)
    sys.exit(1)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    wanted = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for w in [w["name"] for w in bench["workloads"]]:
        for trace in ["0", "1"]:
            cmd = [sys.executable, "perfbench/run.py", "--workload", w,
                   "--seed", "1", "--seconds", "1", "--trace", trace,
                   "--size", "tiny"]
            if w.startswith("sim_"):
                cmd.append("--check-harness")
            r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                               timeout=300)
            lines = r.stdout.strip().split("\n")
            if r.returncode != 0:
                fail("%s trace %s exited %d" % (w, trace, r.returncode))
            result = json.loads(lines[-1])
            report = json.loads(lines[-2])["report"]
            if not result["correct"] or result["failed"] != 0:
                fail("%s trace %s: incorrect run: %s" % (w, trace, lines[-1]))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                fail("%s trace %s: metrics %s, expected %s"
                     % (w, trace, sorted(got), sorted(wanted[trace])))
            if set(report) != REPORT_KEYS or report["oversubscribed"]:
                fail("%s trace %s: bad report %s" % (w, trace, report))
            if trace == "1" and "tracing overhead" not in r.stdout:
                fail("%s: traced run printed no tracing overhead" % w)
            if w.startswith("sim_") and not any(
                    k.startswith("harness_equal:") for k in report["checks"]):
                fail("%s: no harness comparison ran" % w)
            print("smoke: ok %-10s trace %s (%d metrics, %d ops)"
                  % (w, trace, len(got), result["attempted"]))
    print("smoke: all workloads ok")


if __name__ == "__main__":
    main()
