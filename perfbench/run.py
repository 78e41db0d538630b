#!/usr/bin/env python3
"""Builds and runs the microrec benchmark from the root of a source tree.

    python3 perfbench/run.py --workload <evaluate|serve|serve_hot|ingest_mix>
                             --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds the library and the benchmark program
(perfbench/CMakeLists.txt, RelWithDebInfo) into .bench_build, or into
$CARGO_TARGET_DIR when set; later runs only check the build is current.
Build output goes to stderr, so the last line of stdout is the program's JSON
result. Working files go to .bench_out; the program removes its working
directory on exit and keeps the traced runs' span files.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("evaluate", "serve", "serve_hot", "ingest_mix")
TARGET = "microrec_perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the program; returns its path."""
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    step = ["cmake", "--build", build_dir, "--target", TARGET, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, TARGET)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # The benchmark builds the library from the tree it runs in.
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("run from the root of a microrec source tree (src/ not found)")
    binary = build(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out", ".bench_out"]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S}s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
