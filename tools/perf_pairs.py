#!/usr/bin/env python3
"""Runs alternating pairs of two damperf binaries and compares them.

Usage:

    python3 tools/perf_pairs.py BASE CHANGE --workload churn --seed 201 \
        --pairs 10 [--seconds 10] [--trace 0|1]

Pair i runs both binaries on seed SEED + i, BASE first on even pairs and
CHANGE first on odd ones, so a drift in the machine's speed lands on both
sides. For every metric it prints the median and quartiles of each side,
the ratio of the medians and how many pairs CHANGE won. A win is a lower
value, or a higher one for the metrics where higher is better.

The deterministic metrics (reliability, both latency percentiles,
msgs_per_delivery and state_mib) are a pure function of the workload and
seed, so a refactor must leave them equal within every pair. The script
exits 1 if one differs, or if a run fails or reports "correct": false;
0 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

DETERMINISTIC = ["reliability", "latency_p50_rounds", "latency_p99_rounds",
                 "msgs_per_delivery", "state_mib"]
HIGHER_IS_BETTER = {"reliability", "workload.publications",
                    "core.first_deliveries", "core.dedup_useful_ratio"}


def damperf(binary, args, seed):
    """One damperf run; returns its metrics as {name: value}."""
    command = [binary, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    result = subprocess.run(command, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True, check=False)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        sys.exit(f"perf_pairs: {' '.join(command)} exited with "
                 f"{result.returncode}")
    document = json.loads(lines[-1])
    if not document.get("correct"):
        sys.exit(f"perf_pairs: {' '.join(command)} reported a failed run")
    return {name: metric["value"]
            for name, metric in document["metrics"].items()}


def quartiles(values):
    """(first quartile, median, third quartile) of `values`."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=os.path.abspath,
                        help="the reference damperf binary")
    parser.add_argument("change", type=os.path.abspath,
                        help="the damperf binary under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be at least 1")

    base_runs, change_runs = [], []
    mismatches = []
    for i in range(args.pairs):
        seed = args.seed + i
        if i % 2 == 0:
            base = damperf(args.base, args, seed)
            change = damperf(args.change, args, seed)
        else:
            change = damperf(args.change, args, seed)
            base = damperf(args.base, args, seed)
        base_runs.append(base)
        change_runs.append(change)
        for name in DETERMINISTIC:
            if name in base and base.get(name) != change.get(name):
                mismatches.append(f"seed {seed}: {name} {base[name]!r} "
                                  f"!= {change.get(name)!r}")
        print(f"pair {i + 1}/{args.pairs} (seed {seed}) done",
              file=sys.stderr)

    print(f"{args.workload}, seeds {args.seed}-{args.seed + args.pairs - 1}, "
          f"{args.seconds} s a run, trace {args.trace}")
    print(f"{'metric':32} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'ratio':>7} {'wins':>6}")
    for name in base_runs[0]:
        base = [metrics[name] for metrics in base_runs]
        change = [metrics[name] for metrics in change_runs]
        b1, b2, b3 = quartiles(base)
        c1, c2, c3 = quartiles(change)
        higher = name in HIGHER_IS_BETTER
        wins = sum((c > b) if higher else (c < b)
                   for b, c in zip(base, change))
        ratio = f"{c2 / b2:.3f}" if b2 else "-"
        base_column = f"{b2:.6g} [{b1:.6g}, {b3:.6g}]"
        change_column = f"{c2:.6g} [{c1:.6g}, {c3:.6g}]"
        print(f"{name:32} {base_column:>34} {change_column:>34} {ratio:>7} "
              f"{f'{wins}/{args.pairs}':>6}")
    if mismatches:
        print("deterministic metrics differ:", file=sys.stderr)
        for line in mismatches:
            print(f"  {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
