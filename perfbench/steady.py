#!/usr/bin/env python3
"""Steadiness check for the benchmark described by BENCHMARK.json.

Runs two sets of untraced runs of one workload, alternating which set runs
first in each pair, each run with its own seed (1, 2, ...) and with
BENCHMARK.json's run_seconds. Prints every end-to-end metric's median and
quartiles per set (A, B) and over both (*), its spread
(quartile distance over the median) against its bound, and flags a metric
whose two medians differ by more than its bound, or a share of failed
operations that differs between the sets.

Run from the repository root:

    python3 perfbench/steady.py --workload tm1 --runs 10

Exits 1 if anything is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(spec, workload, seed, seconds):
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if done.returncode != 0 or not lines:
        sys.exit(f"run failed (exit {done.returncode}): {' '.join(command)}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"correctness check failed: {' '.join(command)}")
    return result


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    sets = ([], [])
    for pair in range(args.runs):
        order = (0, 1) if pair % 2 == 0 else (1, 0)
        for which in order:
            seed = 1 + 2 * pair + which
            result = run_once(spec, args.workload, seed, seconds)
            sets[which].append(result)
            values = " ".join(f"{m['value']:.4g}" for m in result["metrics"].values())
            print(f"set {'AB'[which]} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']} metrics {values}", flush=True)

    flagged = False
    shares = [sorted({r["failed"] / r["attempted"] for r in s}) for s in sets]
    if shares[0] != shares[1] or len(shares[0]) != 1:
        flagged = True
        print(f"FLAG failed-operation shares differ: {shares}")
    print(f"{'metric':28} {'set':3} {'q1':>12} {'median':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        medians = []
        for which, runs in enumerate(sets + (sets[0] + sets[1],)):
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = summary(values)
            if which < 2:
                medians.append(median)
            spread = (q3 - q1) / median if median else float("inf")
            note = "" if spread <= bound / 3 else "  (spread above a third of the bound)"
            print(f"{name:28} {'AB*'[which]:3} {q1:12.4f} {median:12.4f} {q3:12.4f} "
                  f"{spread:7.3f} {bound:6.2f}{note}")
        worse = medians[1] / medians[0] - 1 if metric["better"] == "lower" \
            else medians[0] / medians[1] - 1
        if abs(medians[1] / medians[0] - 1) > bound:
            flagged = True
            print(f"FLAG {name}: medians {medians[0]:.4f} and {medians[1]:.4f} differ "
                  f"by more than {bound:.0%} (B worse by {worse:+.1%})")
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
