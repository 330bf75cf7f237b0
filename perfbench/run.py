#!/usr/bin/env python3
"""Build the host-time benchmark in Release and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the mfw
libraries and the benchmark binary into .bench_build/perfbench (about a minute
on a 4-CPU host); later runs only re-check the build. The binary's host and
build stamp lines are passed through; its last line, the measured values by
name and the workload's idle layers, becomes one JSON result object, the last
line printed: every metric BENCHMARK.json declares for the mode (end-to-end
with --trace 0, per-layer with --trace 1) with its declared unit. A per-layer
metric of a layer the workload declares idle reads 0. A measured name that
BENCHMARK.json does not declare, or a declared one the workload neither
measured nor declared idle, makes the result incorrect. Build output goes to
standard error.

Exits non-zero, printing no result, when the build fails (for example when
the mfw sources are missing), when the build is not Release, or when the
workload fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("campaign_watch", "campaign_content", "serve_read", "serve_ingest")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def cached_build_type():
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build():
    """Configures (once) and builds the binary; returns True on success."""
    steps = []
    if cached_build_type() != "Release":
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build step failed: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: build step {' '.join(step[:2])} exited "
                  f"{done.returncode}", file=sys.stderr)
            return False
    return True


def compose(raw, trace):
    """The result line from the binary's raw line and BENCHMARK.json."""
    with open(SPEC) as spec_file:
        spec = json.load(spec_file)
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = spec["per_layer" if trace else "end_to_end"]
    values, idle = raw["values"], raw["idle"]
    problems = [f"{name} is not declared in BENCHMARK.json"
                for name in values if name not in declared]
    problems += [f"idle layer {prefix} names no declared metric"
                 for prefix in idle
                 if not any(name.startswith(prefix) for name in declared)]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        is_idle = trace and any(name.startswith(p) for p in idle)
        if name in values and is_idle:
            problems.append(f"{name} is measured but its layer declared idle")
        elif name not in values and not is_idle:
            problems.append(f"{name} was not measured")
        metrics[name] = {"value": values.get(name, 0.0), "unit": metric["unit"]}
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    return {"correct": raw["correct"] and not problems,
            "attempted": raw["attempted"], "failed": raw["failed"],
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not build():
        return 2
    if cached_build_type() != "Release":
        print("perfbench: refusing a non-Release build", file=sys.stderr)
        return 3
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: workload timed out", file=sys.stderr)
        return 4
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        print("\n".join(lines), file=sys.stderr)
        print(f"perfbench: workload exited {done.returncode}", file=sys.stderr)
        return done.returncode or 1
    try:
        result = compose(json.loads(lines[-1]), args.trace == "1")
    except (ValueError, KeyError, TypeError, OSError) as err:
        print(f"perfbench: workload printed no result ({err!r})", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
