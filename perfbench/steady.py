#!/usr/bin/env python3
"""Steadiness check: runs run.py N times per workload, each with another
seed, and prints each metric's median, quartiles and spread.

    python3 perfbench/steady.py --runs 10 [--sets 2] [--workloads a,b]

Run from the repository root. Seeds are 1..N; each run measures for
BENCHMARK.json's run_seconds with tracing off. The spread is
(Q3 - Q1) / median over the runs, with Python's
statistics.quantiles(values, n=4); an end-to-end metric is "ok" when its spread stays within a third of its bound in
BENCHMARK.json, "WIDE" when it does not, and "OVER" when it exceeds the
bound itself. With --sets 2 every set runs the same seeds on every
workload, one set after the other, and each metric's later median is
compared with the first set's: "worse" marks a change past the bound in
the metric's worse direction. The failed share (failed / attempted) is
printed per run, since it must be the same in every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_set(runs, seconds, workloads):
    """{workload: {metric: [value per run]}}, and whether every run was
    correct."""
    values = {}
    correct = True
    for workload in workloads:
        series = values.setdefault(workload, {})
        for seed in range(1, runs + 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exited {proc.returncode} "
                      "without a result", flush=True)
                correct = False
                continue
            result = json.loads(lines[-1])
            correct &= result["correct"]
            share = result["failed"] / result["attempted"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed share {share:.6g}", flush=True)
            for name, metric in result["metrics"].items():
                series.setdefault(name, []).append(metric["value"])
    return values, correct


def summarize(values, bounds):
    """Prints each metric's quartiles and verdict; returns its medians."""
    medians = {}
    for workload, series in values.items():
        print(f"{workload}:")
        for name, runs in series.items():
            if len(runs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(runs, n=4)
            medians[workload, name] = med
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = ("ok" if spread <= bound / 3 else
                           "WIDE" if spread <= bound else "OVER")
            print(f"  {name:32s} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:.3f} {verdict}",
                  flush=True)
            print("    runs: " + " ".join(f"{v:.4g}" for v in runs))
    return medians


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    bounds = {name: m["bound"] for name, m in metrics.items()}

    first = None
    for number in range(1, args.sets + 1):
        print(f"== set {number}", flush=True)
        values, correct = run_set(args.runs, spec["run_seconds"],
                                  args.workloads.split(","))
        print(f"set {number}: every run correct: {correct}")
        medians = summarize(values, bounds)
        if first is None:
            first = medians
            continue
        print(f"set {number} against set 1 (median change, + is worse):")
        for (workload, name), med in medians.items():
            if (workload, name) not in first:
                continue
            change = med / first[workload, name] - 1
            if metrics[name]["better"] == "higher":
                change = -change
            verdict = "worse" if change > bounds[name] else (
                "ok" if abs(change) <= 0.1 else "moved")
            print(f"  {workload:14s} {name:24s} {change:+.3f} {verdict}",
                  flush=True)


if __name__ == "__main__":
    main()
