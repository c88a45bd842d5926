#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 repobench/run.py --workload oneshot|fleet|governed --seed N \
        --seconds S --trace 0|1
    python3 repobench/run.py --self-test

Run from the root of a checkout. The library and the repobench binary
are built from source into .bench_build/ (CMake, Release). The binary's
last stdout line is the result object; a traced run also writes its
spans as Chrome trace-event JSON under .bench_build/traces/.

--self-test plants one corrupted golden byte into each workload and
requires a failing exit with fail_frac > 0.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "repobench")
EXE = os.path.join(BUILD, "repobench")
WORKLOADS = ("oneshot", "fleet", "governed")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "fleet.hh")):
        log(f"library sources not found under {ROOT}/src")
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("build failed")
            sys.exit(2)


def run_bench(args):
    """Run the binary; returns (exit code, parsed last stdout line)."""
    try:
        proc = subprocess.run([EXE] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"repobench exceeded {RUN_TIMEOUT_S} s")
        return 3, None
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, (proc.stdout, result)


def self_test():
    ok = True
    for w in WORKLOADS:
        code, out = run_bench(["--workload", w, "--seed", "1",
                               "--seconds", "1", "--trace", "1",
                               "--plant-fault"])
        res = out[1] if out else None
        frac = res["metrics"]["fail_frac"]["value"] if res else 0
        caught = (code != 0 and res is not None
                  and res["correct"] is False and frac > 0)
        log(f"self-test {w}: exit {code}, fail_frac {frac:.4g}: "
            f"{'caught' if caught else 'MISSED'}")
        ok = ok and caught
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and (a.workload is None or a.seed is None
                            or a.seconds is None):
        ap.error("--workload, --seed and --seconds are required")

    build()
    if a.self_test:
        return self_test()

    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-file",
                 os.path.join(traces, f"{a.workload}-seed{a.seed}.json")]
    code, out = run_bench(args)
    if out is None or out[1] is None:
        log("repobench printed no result")
        return code or 1
    sys.stdout.write(out[0])
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
