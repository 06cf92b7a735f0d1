#!/usr/bin/env python3
"""Frame-cost benchmark: builds the benchmark package and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload fleet_wire --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test          # the benchmark's own tests

The package (perfbench/CMakeLists.txt) builds the repository's libraries
from ../src into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
The benchmark binary prints host facts and every metric by name with its unit;
this script passes that through and ends with one JSON line holding exactly
the metrics BENCHMARK.json declares for the mode (--trace 0: end_to_end,
--trace 1: per_layer).  A failed build, a failed correctness check or a
missing metric exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(target):
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", bdir, "--target", target,
         "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return bdir


def declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_tests():
    bdir = build("perfbench_tests")
    return subprocess.run([os.path.join(bdir, "perfbench_tests")],
                          timeout=RUN_TIMEOUT_S * 4).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="fleet_wire, bus_adapt or bus_burst")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    try:
        if args.test:
            return run_tests()
        names = declared(args.trace)
        bdir = build("vprofile_perfbench")
        out_dir = os.path.join(bdir, "reports")
        os.makedirs(out_dir, exist_ok=True)
        proc = subprocess.run(
            [os.path.join(bdir, "vprofile_perfbench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out-dir", out_dir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    if proc.returncode != 0:
        return proc.returncode

    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        print("perfbench: %s reported no %s" % (args.workload, ", ".join(missing)),
              file=sys.stderr)
        return 1
    result["metrics"] = {n: result["metrics"][n] for n in names}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
