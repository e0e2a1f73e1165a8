#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload sim_fig4a --seed 1 --seconds 20 --trace 0

--workload all runs the four workloads one after another and prints each
one's output in turn.

The OCaml program (perfbench/bench.ml) does the measuring; this wrapper
builds it with dune, passes the arguments through, records which source
tree was measured, and checks that bench.exe's last output line is the
result object before printing it as this program's last line. A failed
build or a malformed result exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ["sim_fig4a", "sim_fig4b", "native_kv", "native_dir"]
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
OUT_DIR = ".bench_out"
RUN_TIMEOUT_S = 170


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        r = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ["lib", "perfbench"]:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(dirpath, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    p.add_argument("--size", default="full", choices=["full", "tiny"])
    p.add_argument("--check-harness", action="store_true")
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0 or not os.path.isfile(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for w in workloads:
        status = run_one(args, w)
        if status != 0:
            return status
    return 0


def run_one(args, workload):
    cmd = [
        EXE,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--size", args.size,
        "--commit", source_id(),
    ]
    if args.check_harness:
        cmd.append("--check-harness")
    if args.trace == "1":
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--spans", os.path.join(
            OUT_DIR, "spans-%s-seed%d.csv" % (workload, args.seed))]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0 or not lines:
        sys.stdout.write(r.stdout)
        print("perfbench: bench.exe exited with %d" % r.returncode,
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
        ok = (set(result) == {"correct", "attempted", "failed", "metrics"}
              and result["attempted"] >= 1)
    except ValueError:
        ok = False
    if not ok:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("perfbench: malformed result line: %s" % lines[-1],
              file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
