#!/usr/bin/env python3
"""Run the repo benchmark over several seeds and report each metric's spread.

    python3 repobench/spread.py --workload fleet --runs 10 [--first-seed 1]
        [--seconds S] [--trace 0|1] [--save runs.json] [--compare old.json]

For every metric: the median, the quartiles from
statistics.quantiles(values, n=4), and the spread (Q3 - Q1) / median,
which for an end-to-end metric should stay under a third of its bound in
BENCHMARK.json. --compare reports how far each median moved against an
earlier --save of the same workload, in the metric's worse direction.
Exits 1 if any run failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save")
    ap.add_argument("--compare")
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    defs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    seconds = a.seconds or bench["run_seconds"]

    runs, failed = [], False
    for seed in range(a.first_seed, a.first_seed + a.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             a.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(a.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not res["correct"]:
            failed = True
        missing = set(res["metrics"]) ^ {
            n for n, m in defs.items() if ("bound" in m) == (a.trace == 0)}
        if missing:
            print(f"metric names differ from BENCHMARK.json: {missing}")
            failed = True
        runs.append({k: v["value"] for k, v in res["metrics"].items()})
        print(f"seed {seed}: exit {proc.returncode}, "
              f"{res['failed']}/{res['attempted']} failed", flush=True)

    old = None
    if a.compare:
        with open(a.compare) as f:
            old = json.load(f)
    print(f"{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s}" + ("  moved" if old else ""))
    for name in runs[0]:
        vals = [r[name] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = defs[name].get("bound")
        flag = " !" if bound is not None and spread > bound / 3 else ""
        line = (f"{name:28s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                f"{spread:7.3f} {bound if bound is not None else '':>6}"
                f"{flag}")
        if old and name in old[0]:
            before = statistics.median(r[name] for r in old)
            sign = 1 if defs[name]["better"] == "lower" else -1
            worse = sign * (med - before) / before if before else 0.0
            line += f"  {worse:+.3f}"
        print(line)
    if a.save:
        with open(a.save, "w") as f:
            json.dump(runs, f)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
