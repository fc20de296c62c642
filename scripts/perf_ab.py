#!/usr/bin/env python3
"""A/B the end-to-end benchmark between two source trees in alternating pairs.

Usage: perf_ab.py PARENT_DIR CHANGE_DIR --workload W [--pairs 10] [--seed 1]

Each tree runs its own perfbench/run.py (which builds that tree's copy of
src/ into its .bench_build/), so the two sides differ only in their code.
Every run lasts BENCHMARK.json's run_seconds (read from CHANGE_DIR, like
the metrics and their bounds).
Pairs alternate which tree runs first, starting with the parent, so slow
drift of the machine does not favour one side. Every run's metrics go to
stderr as they finish.

The table on stdout gives, per end-to-end metric of BENCHMARK.json (read
from CHANGE_DIR): each side's median and quartiles, the change's median
relative to the parent's, and the change's wins out of the pairs (ties
count for neither side). Flags:

  WORSE       the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's own spread exceeds the bound, so a shift
              within the bound cannot be told from noise; the spread is
              perfbench/selfcheck.py's, the interquartile range over the
              median; not flagged when every change run beats every
              parent run;
  GAIN        the change won at least nine tenths of the pairs and its
              median is better than the parent's by more than the
              parent's interquartile range: the rule a claimed gain must
              meet.

Exit status: 0 when every run read "correct": true with "failed": 0,
1 otherwise (a run that crashes or prints no JSON counts as failed), 2 on
bad arguments.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(tree, workload, seed, seconds):
    """Runs one benchmark in `tree`; returns its JSON result or None."""
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def healthy(result):
    return (result is not None and result.get("correct") is True
            and result.get("failed", 1) == 0)


def quartiles(values):
    """First and third quartile, computed as perfbench/selfcheck.py does."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def better(a, b, lower_is_better):
    """Whether a beats b (a tie beats nothing)."""
    return a < b if lower_is_better else a > b


def summarize(metric, parent, change):
    """One table row for `metric` over paired runs."""
    name = metric["name"]
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if better(c, p, lower))
    rel = (c_med - p_med) / p_med if p_med else 0.0
    worse_by = rel if lower else -rel
    spread = (p_q3 - p_q1) / p_med if p_med else float("inf")
    flags = []
    if worse_by > bound:
        flags.append("WORSE")
    separated = all(better(c, p, lower) for p in parent for c in change)
    if spread > bound and not separated:
        flags.append("unresolved")
    if (wins >= 0.9 * len(parent) and better(c_med, p_med, lower)
            and abs(c_med - p_med) > p_q3 - p_q1):
        flags.append("GAIN")
    p_col = f"{p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}]"
    c_col = f"{c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}]"
    return (f"{name:<13} {p_col:<30} {c_col:<30} {rel:>+7.1%}"
            f"  {wins:>2}/{len(parent)}  {' '.join(flags)}").rstrip()


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    with open(os.path.join(args.change_dir, "BENCHMARK.json"),
              encoding="utf-8") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]

    trees = {"parent": args.parent_dir, "change": args.change_dir}
    values = {side: {m["name"]: [] for m in metrics} for side in trees}
    all_healthy = True
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(trees[side], args.workload, args.seed,
                              seconds)
            if not healthy(result):
                all_healthy = False
                print(f"pair {pair + 1} {side}: unhealthy run: {result}",
                      file=sys.stderr)
                continue
            for m in metrics:
                values[side][m["name"]].append(
                    result["metrics"][m["name"]]["value"])
            line = " ".join(
                f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                for m in metrics)
            print(f"pair {pair + 1} {side}: {line}", file=sys.stderr,
                  flush=True)

    print(f"workload {args.workload}, seed {args.seed}, {seconds:g} s, "
          f"{args.pairs} alternating pairs")
    print(f"{'metric':<13} {'parent median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} {'change':>7}  wins")
    for m in metrics:
        parent = values["parent"][m["name"]]
        change = values["change"][m["name"]]
        if len(parent) != args.pairs or len(change) != args.pairs:
            print(f"{m['name']:<13} incomplete: {len(parent)} parent and "
                  f"{len(change)} change runs")
            continue
        print(summarize(m, parent, change))
    if not all_healthy:
        print("at least one run was not correct with failed == 0")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
