#!/usr/bin/env python3
"""Build and run the QSM benchmark, or compare two builds of it.

Run one workload (from the root of the repository):

    python3 perfbench/run.py --workload sim_allpairs_p1024 --seed 1 --seconds 25 --trace 0

This builds `perfbench/` (a Cargo package of its own that depends on the
repository's crates by path) in release mode, runs the benchmark binary,
and passes its output through; the last line is the result JSON. The build
goes to `$CARGO_TARGET_DIR` when set, else `perfbench/target`.

Compare two builds, interleaved (see README.md):

    python3 perfbench/run.py ab --a parent=/path/to/old/qsm-perfbench \\
        --b change=/path/to/new/qsm-perfbench --pairs 10 --seconds 25
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sim_allpairs_p1024", "serve_overload_p16", "threads_prefix_p2_n10m", "figsuite_fast"]


def target_dir():
    t = os.environ.get("CARGO_TARGET_DIR")
    return os.path.join(ROOT, t) if t else os.path.join(HERE, "target")


def build():
    """Build the benchmark; return the binary's path, or None on failure."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(target_dir(), "release", "qsm-perfbench")


def binary_cmd(binary, workload, seed, seconds, trace):
    """The benchmark binary's command line; its scratch files (the
    journal-append measurement) stay inside the build directory."""
    scratch = os.path.join(target_dir(), "perfbench-scratch")
    os.makedirs(scratch, exist_ok=True)
    return [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--scratch", scratch]


def run_binary(binary, workload, seed, seconds, trace):
    """Run one benchmark process; return its result JSON (the last line)."""
    cmd = binary_cmd(binary, workload, seed, seconds, trace)
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def pair_wins(a_values, b_values):
    """Share of pairs B wins over A: every end-to-end metric (times,
    memory) is better lower, and ties count for neither side."""
    return sum(1 for a, b in zip(a_values, b_values) if b < a) / len(a_values)


def summary(values):
    """Median and quartiles, by the same rule the acceptance check uses."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def ab(args):
    sides = []
    for spec in (args.a, args.b):
        name, _, path = spec.partition("=")
        if not path or not os.path.isfile(path):
            sys.exit(f"--a/--b take NAME=PATH to a built qsm-perfbench binary, not {spec!r}")
        sides.append((name, os.path.abspath(path)))
    # values[workload][metric][side] -> one value per pair
    values = {w: {} for w in WORKLOADS}
    for k in range(args.pairs):
        order = [0, 1] if k % 2 == 0 else [1, 0]
        for w in WORKLOADS:
            for side in order:
                result = run_binary(sides[side][1], w, args.seed + k, args.seconds, 0)
                if not result["correct"]:
                    sys.exit(f"{sides[side][0]} failed {result['failed']} ops on {w}")
                for metric, m in result["metrics"].items():
                    values[w].setdefault(metric, ([], []))[side].append(m["value"])
        print(f"pair {k + 1}/{args.pairs} done ({sides[order[0]][0]} first)", file=sys.stderr)
    (a_name, _), (b_name, _) = sides
    print(f"{'workload':<24} {'metric':<16} {a_name + ' median [q1, q3]':>36} "
          f"{b_name + ' median [q1, q3]':>36} {b_name + ' wins':>10}")
    for w in WORKLOADS:
        for metric, (av, bv) in values[w].items():
            am, aq1, aq3 = summary(av)
            bm, bq1, bq3 = summary(bv)
            print(f"{w:<24} {metric:<16} {am:>14.6g} [{aq1:.6g}, {aq3:.6g}] "
                  f"{bm:>14.6g} [{bq1:.6g}, {bq3:.6g}] {pair_wins(av, bv):>9.0%}")


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "ab":
        p = argparse.ArgumentParser(prog="run.py ab")
        p.add_argument("--a", required=True, help="NAME=PATH of the baseline binary")
        p.add_argument("--b", required=True, help="NAME=PATH of the candidate binary")
        p.add_argument("--pairs", type=int, default=10)
        p.add_argument("--seconds", type=int, default=25)
        p.add_argument("--seed", type=int, default=1, help="pair k uses seed + k")
        args = p.parse_args(sys.argv[2:])
        if args.pairs < 10:
            sys.exit("an A/B comparison needs at least ten pairs")
        ab(args)
        return
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    binary = build()
    if binary is None:
        sys.exit("benchmark build failed")
    cmd = binary_cmd(binary, args.workload, args.seed, args.seconds, args.trace)
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
