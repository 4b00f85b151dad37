#!/usr/bin/env python3
"""Builds and runs the overlapsim end-to-end benchmark.

Run from the root of an overlapsim checkout:

    python3 overlapbench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

The first run configures and builds the libraries, osim_serve and the
driver (Release) into .bench_build/overlapbench; later runs reuse the
build. The last line of standard output is the driver's JSON result; the
exit code is the driver's (0 = every correctness check passed). See
overlapbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "overlapbench")
BUILD_TYPE = "Release"


def log(message):
    print(f"[overlapbench] {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; returns the build directory."""
    build_dir = os.path.join(ROOT, BUILD_DIR)
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no overlapsim sources next to overlapbench/; nothing to build")
        sys.exit(3)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        log(f"configuring a {BUILD_TYPE} build in {BUILD_DIR}")
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, *generator,
             f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
            check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir


def complete_metrics(result_line, trace):
    """Checks the driver's result against BENCHMARK.json and returns it as
    printed: every listed metric for the mode, in the listed order, the
    per-layer ones a workload does not measure as 0. Returns (line,
    complaint); a printed name or unit that is not listed, or a missing
    end-to-end metric, is a complaint."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        return result_line, None
    with open(spec_path) as f:
        spec = json.load(f)
    listed = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    try:
        result = json.loads(result_line)
        printed = result["metrics"]
        units = {name: m["unit"] for name, m in printed.items()}
    except (ValueError, KeyError, TypeError):
        return result_line, "the driver's last line is not a result"
    for name, unit in units.items():
        if listed.get(name) != unit:
            return result_line, (f"printed metric {name} ({unit}) is not "
                                 f"listed in BENCHMARK.json")
    missing = [name for name in listed if name not in printed]
    if missing and not trace:
        return result_line, f"end-to-end metrics {missing} were not printed"
    result["metrics"] = {
        name: printed.get(name, {"value": 0, "unit": unit})
        for name, unit in listed.items()}
    return json.dumps(result, separators=(",", ":")), None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["analyze", "sweep", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        build_dir = build()
    except subprocess.CalledProcessError as error:
        log(f"build failed: {error}")
        return 3
    driver = subprocess.run(
        [os.path.join(build_dir, "overlapbench"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--serve-binary", os.path.join(build_dir, "osim_serve"),
         "--out-dir", ".bench_out", "--work-dir", ".bench_work"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = driver.stdout.strip().splitlines()
    if driver.returncode in (0, 1) and lines:
        lines[-1], complaint = complete_metrics(lines[-1], args.trace == 1)
        if complaint:
            log(complaint)
            return 4
    if lines:
        print("\n".join(lines), flush=True)
    return driver.returncode


if __name__ == "__main__":
    sys.exit(main())
