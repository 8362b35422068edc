#!/usr/bin/env python3
"""Run one workload of the queue benchmark and print its result line.

    python3 perfbench/run.py --workload pairs-1t --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The first call builds the benchmark
binary into .bench_build/perfbench (CMake, from the checkout's own sources);
later calls rebuild only what changed. Build output goes to stderr, so the
last line of stdout is always the binary's JSON result. Workloads, metrics
and the output check are described in perfbench/README.md.
"""
import argparse
import pathlib
import subprocess
import sys

WORKLOADS = ("pairs-1t", "pairs-4t", "handoff-capi")
ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("perfbench: the queue's sources (CMakeLists.txt, src/) are "
                 "not in this checkout; nothing to build")
    steps = [["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", "4"]]
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return BUILD / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        sys.exit("perfbench: --seconds must be in [1, 60]")

    binary = build()
    trace_dir = ROOT / ".bench_build" / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", str(trace_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: benchmark binary exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(f"perfbench: benchmark binary exited with code {proc.returncode}")


if __name__ == "__main__":
    main()
