#!/usr/bin/env python3
"""Steadiness self-check: runs each workload in two sets and reports every
end-to-end metric's spread against its bound in BENCHMARK.json.

    python3 perfbench/selfcheck.py                      # 2 sets x 10 runs
    python3 perfbench/selfcheck.py --workloads gas_large --runs 5 --sets 1

Every run lasts BENCHMARK.json's run_seconds and uses its own seed (sets
never share one). For each metric and set, the spread is the distance
between the first and third quartile of the runs' values
(statistics.quantiles(n=4)) as a share of their median; it must stay
within the metric's bound, and a third of the bound is the target. Across
sets, the later set's median may not be worse than the first's by more
than the bound. Exits non-zero when a rule is broken or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIRST_SEED = 1


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed,
                                                      out.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError("%s seed %d: %d of %d operations failed" %
                           (workload, seed, result["failed"],
                            result["attempted"]))
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args()
    seconds = bench["run_seconds"]

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = FIRST_SEED + 1000 * s + i
                try:
                    runs.append(run_once(workload, seed, seconds, 0))
                except RuntimeError as err:
                    print("FAIL", err)
                    return 1
                print("  %s set %d seed %d: %s" % (workload, s + 1, seed,
                      " ".join("%s=%.4g" % kv for kv in runs[-1].items())),
                      flush=True)
            sets.append(runs)
        print("%s (%d sets x %d runs, %d s each)" %
              (workload, args.sets, args.runs, seconds))
        for name, m in metrics.items():
            bound = m["bound"]
            worse = 1.0 if m["better"] == "lower" else -1.0
            medians = []
            cells = []
            for runs in sets:
                values = [r[name] for r in runs]
                sp = spread(values)
                medians.append(statistics.median(values))
                verdict = ("ok" if sp <= bound / 3 else
                           "wide" if sp <= bound else "OVER")
                if verdict == "OVER":
                    ok = False
                cells.append("median %.5g spread %.3f %s" %
                             (medians[-1], sp, verdict))
            drift = [worse * (m2 - medians[0]) / medians[0]
                     for m2 in medians[1:]]
            if any(d > bound for d in drift):
                ok = False
            print("  %-14s bound %.2f | %s%s" % (
                name, bound, " | ".join(cells),
                "".join(" | drift %+.3f%s" % (d, " OVER" if d > bound else "")
                        for d in drift)))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
