#!/usr/bin/env python3
"""Build and run the dsud benchmark.

    python3 dsudbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first call configures and builds
dsudbench (the repository's libraries plus the benchmark binary) under
.bench_build/dsudbench; later calls only rebuild what changed.  Build output
goes to stderr, so the last line on stdout is the binary's JSON result.  A
traced run also writes its spans to .bench_build/spans-<workload>.tsv (one
file per workload, replaced by the next traced run, so the checkout stays
bounded).
The exit code is the binary's: 0 only when every answer matched the oracle.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("dsudd-open", "dsudd-hot-rw", "paper-tcp")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build", "dsudbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "dsudbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("dsudbench: build failed: " + " ".join(step), file=sys.stderr)
            return 2

    command = [os.path.join(build_dir, "dsudbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans-out", os.path.join(
            root, ".bench_build", f"spans-{args.workload}.tsv")]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
