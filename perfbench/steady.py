#!/usr/bin/env python3
"""Steadiness check: run each workload several times and judge the spread.

    python3 perfbench/steady.py                      # 10 runs of every workload
    python3 perfbench/steady.py --runs 5 --workload kernel_run
    python3 perfbench/steady.py --sets 2             # also compare two sets

Each run uses another seed (1, 2, ...). For every end-to-end metric in
BENCHMARK.json it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)), the spread (Q3 - Q1) / median, and
whether the spread stays within the metric's bound ("ok"), within a third
of it ("steady"), or not ("WIDE"). setup_s is not held to its bound for
spread, only for the shift between sets. With --sets 2 the second set's
median is compared with the first's, and the share of failed operations
must be identical in every run. Exit status 1 if any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("steady: %s seed %d exited %d" % (workload, seed,
                                                    proc.returncode))
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit("steady: %s seed %d reported incorrect output" %
                 (workload, seed))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to check (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=[1, 2])
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="also print every run's value")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            seeds = range(1 + s * args.runs, 1 + (s + 1) * args.runs)
            sets.append([run(workload, seed, spec["run_seconds"])
                         for seed in seeds])
        shares = {r["failed"] / r["attempted"] for rs in sets for r in rs}
        print("== %s: %d run(s) x %d set(s), failed share %s" %
              (workload, args.runs, args.sets,
               ", ".join("%.6f" % x for x in sorted(shares))))
        if len(shares) != 1:
            print("   FAILED SHARE DIFFERS between runs")
            ok = False
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            medians = []
            for s, results in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in results]
                q1, med, q3 = statistics.quantiles(values, n=4)
                medians.append(med)
                spread = (q3 - q1) / med if med else float("inf")
                if name == "setup_s":
                    verdict = "(not bounded)"
                elif spread <= bound / 3:
                    verdict = "steady"
                elif spread <= bound:
                    verdict = "ok"
                else:
                    verdict, ok = "WIDE", False
                print("   set %d %-20s median %-12.6g q1 %-12.6g q3 %-12.6g "
                      "spread %6.2f%% bound %5.1f%% %s" %
                      (s + 1, name, med, q1, q3, 100 * spread, 100 * bound,
                       verdict))
                if args.verbose:
                    print("         values " +
                          " ".join("%.6g" % v for v in values))
            if len(medians) == 2 and medians[0]:
                shift = (medians[1] - medians[0]) / medians[0]
                worse = shift if lower else -shift
                verdict = "ok" if worse <= bound else "WORSE"
                ok = ok and worse <= bound
                print("   shift %-20s %+.2f%% %s" % (name, 100 * shift, verdict))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
