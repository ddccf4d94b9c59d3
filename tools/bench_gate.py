#!/usr/bin/env python3
"""Paired dsudbench runs: a change checkout against its parent.

    tools/bench_gate.py --parent DIR --change DIR
        [--workloads dsudd-open,dsudd-hot-rw,paper-tcp] [--seeds 7,8,9]
        [--seconds 20] [--pairs 1]

For every workload, seed and pair, runs `python3 dsudbench/run.py` once in
each checkout, back to back; the side that goes first alternates from pair
to pair so drift on a shared host does not favour either.  Each checkout
builds its own dsudbench under its own .bench_build/ on first use.

Prints, per workload, each end-to-end metric BENCHMARK.json declares: the
parent's median with its quartiles, the change's median, the median
change/parent ratio over the pairs, how many pairs the change won (by the
metric's `better` direction) and how many read exactly equal (the check
for deterministic counts), and whether the median ratio is worse than the
metric's bound.  Also prints `attempted` and `failed` per side.

Exit status: 1 when any run, on either side, failed a query, returned a
wrong answer (dsudbench exits non-zero then) or produced no result; 2 on a
usage error; 0 otherwise.  Bounds are reported, not gated: the spread of
paired ratios on the host decides whether they can be.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed, seconds):
    """One dsudbench run; returns (result dict or None, exit code)."""
    proc = subprocess.run(
        [sys.executable, "dsudbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return result, proc.returncode


def quartiles(values):
    """(q1, median, q3) of a non-empty list."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def ratio_line(metric, pairs):
    """One metric: each side's median (the parent's with its quartiles),
    the median change/parent ratio, wins, and the bound verdict."""
    name, better, bound = metric["name"], metric["better"], metric["bound"]
    parents, changes, ratios, wins, ties = [], [], [], 0, 0
    for parent, change in pairs:
        p = parent["metrics"].get(name, {}).get("value")
        c = change["metrics"].get(name, {}).get("value")
        if p is None or c is None or p == 0:
            continue
        parents.append(p)
        changes.append(c)
        ratios.append(c / p)
        if (c < p) if better == "lower" else (c > p):
            wins += 1
        ties += c == p
    if not ratios:
        return f"  {name:18s} n/a"
    q1, parent_median, q3 = quartiles(parents)
    median = statistics.median(ratios)
    worse = median > 1 + bound if better == "lower" else median < 1 - bound
    verdict = "WORSE than bound" if worse else "within bound"
    return (f"  {name:18s} parent {parent_median:.4g} [{q1:.4g}, {q3:.4g}]"
            f"  change {statistics.median(changes):.4g}  ratio {median:.3f}"
            f"  wins {wins}/{len(ratios)}  equal {ties}"
            f"  ({verdict} {bound:.2f})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workloads",
                        default="dsudd-open,dsudd-hot-rw,paper-tcp")
    parser.add_argument("--seeds", default="7")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--pairs", type=int, default=1)
    args = parser.parse_args()

    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    for path in sides.values():
        if not os.path.isfile(os.path.join(path, "dsudbench", "run.py")):
            print(f"bench_gate: {path} is not a checkout with dsudbench/",
                  file=sys.stderr)
            return 2
    with open(os.path.join(sides["change"], "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    seeds = [int(s) for s in args.seeds.split(",")]

    bad = False
    for workload in args.workloads.split(","):
        pairs = []
        totals = {side: {"attempted": 0, "failed": 0} for side in sides}
        for run in range(len(seeds) * args.pairs):
            seed = seeds[run // args.pairs]
            order = ("parent", "change") if run % 2 == 0 else \
                ("change", "parent")
            got = {}
            for side in order:
                result, code = run_once(sides[side], workload, seed,
                                        args.seconds)
                if (result is None or code != 0 or result.get("failed")
                        or not result.get("correct")):
                    bad = True
                    print(f"bench_gate: {workload} seed {seed} {side}: exit "
                          f"{code}, a failed query, a wrong answer or no "
                          f"result", file=sys.stderr)
                if result is not None:
                    totals[side]["attempted"] += result.get("attempted", 0)
                    totals[side]["failed"] += result.get("failed", 0)
                    got[side] = result
            if len(got) == 2:
                pairs.append((got["parent"], got["change"]))
        print(f"{workload}: {len(pairs)} pairs at {args.seconds} s, seeds "
              f"{args.seeds}; attempted parent "
              f"{totals['parent']['attempted']} / change "
              f"{totals['change']['attempted']}, failed parent "
              f"{totals['parent']['failed']} / change "
              f"{totals['change']['failed']}")
        for metric in metrics:
            print(ratio_line(metric, pairs))
        sys.stdout.flush()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
