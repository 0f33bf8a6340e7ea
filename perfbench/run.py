#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the trainers and the serving fleet.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
library and the benchmark into .bench_build/ (Release, the top-level
build's flags); later runs rebuild only what changed. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. `--workload all` runs every workload in turn and
prefixes each metric with its workload's name. README.md describes the
workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "perfbench")
WORKLOADS = ["train-inproc", "train-dist", "serve-steady", "serve-saturate"]
# One run must end well within the 180 s a run is given.
RUN_TIMEOUT_S = 170


def source_id():
    """Content hash of the library and benchmark sources: it identifies
    the measured program in checkouts that carry no version-control data."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources at %s" % os.path.join(ROOT, "src"))
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: %s" % " ".join(cmd))


def run(workload, args, source):
    cmd = [EXE, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source", source]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit("perfbench: %s exited with code %d" % (workload, proc.returncode))
    return lines[:-1], json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    build()
    source = source_id()
    if args.workload != "all":
        notes, result = run(args.workload, args, source)
        print("\n".join(notes))
        print(json.dumps(result))
        return
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        notes, result = run(workload, args, source)
        print("\n".join(notes))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "/" + name] = metric
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
