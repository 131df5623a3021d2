#!/usr/bin/env python3
"""Build the polyfuse benchmark and run one workload, or all of them.

    python3 perfbench/run.py --workload suite_compile --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run it from the root of the repository. The first call configures and
builds the polyfuse libraries and the benchmark into .bench_build/ with
perfbench/CMakeLists.txt; the repository's own build files and build
directory are not used. Later calls rebuild only what changed.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics (for --workload all, one object
per workload under "workloads"). Build output goes to standard error.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["suite_compile", "suite_analyze", "kernel_run"]


def build():
    """Configure (once) and build the benchmark; exit 1 on failure."""
    configure = ["cmake", "-S", HERE, "-B", BUILD]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target", "perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def run_one(workload, seed, seconds, trace):
    """Run one workload; returns (exit code, its result object or None)."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # the JIT's cc keeps its files here
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans-out", os.path.join(BUILD, "spans-%s.json" % workload)]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return proc.returncode, lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    build()
    if args.workload != "all":
        code, lines, _ = run_one(args.workload, args.seed, args.seconds,
                                 args.trace)
        print("\n".join(lines), flush=True)
        return code

    results = {}
    for workload in WORKLOADS:
        code, lines, result = run_one(workload, args.seed, args.seconds,
                                      args.trace)
        print("== %s" % workload)
        print("\n".join(lines[:-1] if result else lines), flush=True)
        if result is None:
            sys.exit("perfbench: workload %s failed (exit %d)" % (workload, code))
        results[workload] = result
    print(json.dumps({"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
