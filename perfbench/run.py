#!/usr/bin/env python3
"""Builds the SECRETA benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload compare-rt --seed 1 --seconds 15 --trace 0

The build goes to .bench_build/perfbench (Release). The last line of stdout
is the JSON result; build output goes to stderr. The result is checked
against BENCHMARK.json first: it must hold exactly the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1) listed there, each in its
listed unit. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("compare-rt", "serve-mixed", "shard-1m")
# A run must end well within the three minutes a caller allows it.
RUN_TIMEOUT_S = 170


def build(root, build_dir):
    """Configures (once) and builds the benchmark; build logs go to stderr."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)


def check_result(line, manifest, trace):
    """Returns what is wrong with the result line, or None."""
    try:
        result = json.loads(line)
    except ValueError:
        return "the last line is not JSON"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "the result has keys %s" % sorted(result)
    listed = manifest["per_layer" if trace else "end_to_end"]
    want = {metric["name"]: metric["unit"] for metric in listed}
    got = {name: metric.get("unit") for name, metric in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        return "metrics differ from BENCHMARK.json: missing %s, extra %s, " \
               "units %s" % (missing, extra, units)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit(f"perfbench: no SECRETA sources under {root}/src")
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    try:
        build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit(f"perfbench: build failed: {error}")

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", os.path.join(root, ".bench_build", "out")]
    try:
        run = subprocess.run(command, timeout=RUN_TIMEOUT_S,
                             stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} ran past {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    with open(os.path.join(root, "BENCHMARK.json")) as manifest:
        problem = check_result(lines[-1] if lines else "", json.load(manifest),
                               args.trace == 1)
    if problem is not None:
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        sys.exit(f"perfbench: {args.workload}: {problem}")
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
