#!/usr/bin/env python3
"""Smoke self-test of the microrec benchmark.

Runs every workload for a few seconds, untraced and traced, at seed 42 and
at one other seed, and asserts that:
  * the last stdout line has exactly the keys correct/attempted/failed/
    metrics, every check passed and no op failed;
  * the untraced run emits every end-to-end metric of BENCHMARK.json and
    the traced run every per-layer metric, each with its declared unit;
  * the "# meta" line records nproc, compiler, build type, seed and scale;
  * serve and serve_hot serve the same rankings_hash on a repeat run.

    python3 perfbench/smoke_test.py [--seconds 2]

Run it from the repository root; it takes a few minutes.
"""
import argparse
import json
import subprocess
import sys

SEEDS = (42, 7)
META_KEYS = ("nproc", "compiler", "build_type", "seed", "scale")
# BENCHMARK.json lists the workloads steady enough to bound; evaluate and
# ingest_mix run by hand (see README.md) and are smoke-tested all the same.
WORKLOADS = ("evaluate", "serve", "serve_hot", "ingest_mix")


def run(workload, seed, seconds, trace):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    out = subprocess.run(command, capture_output=True, text=True)
    label = f"{workload} seed {seed} trace {trace}"
    if out.returncode != 0:
        raise AssertionError(f"{label}: exit {out.returncode}\n"
                             f"{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    meta = next(json.loads(l[len("# meta "):]) for l in lines
                if l.startswith("# meta "))
    return label, result, meta, [l for l in lines if l.startswith("FAIL")]


def check(label, result, meta, failures, expected):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, \
        f"{label}: result keys {sorted(result)}"
    assert result["correct"] is True, f"{label}: checks failed {failures}"
    assert result["failed"] == 0, f"{label}: {result['failed']} ops failed"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, f"{label}: metrics {got} != {expected}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{label}: {name}"
    for key in META_KEYS:
        assert key in meta, f"{label}: meta lacks {key}"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    for workload in WORKLOADS:
        hashes = []
        for seed in SEEDS:
            for trace, expected in ((0, end_to_end), (1, per_layer)):
                label, result, meta, failures = run(workload, seed,
                                                    args.seconds, trace)
                check(label, result, meta, failures, expected)
                print(f"ok  {label}: {result['attempted']} ops", flush=True)
                if seed == 42 and trace == 0:
                    hashes.append(meta.get("rankings_hash"))
        if workload in ("serve", "serve_hot"):
            label, result, meta, failures = run(workload, 42, args.seconds, 0)
            check(label, result, meta, failures, end_to_end)
            hashes.append(meta.get("rankings_hash"))
            assert hashes[0] is not None and hashes[0] == hashes[1], \
                f"{workload}: rankings_hash {hashes} differs on a repeat"
            print(f"ok  {workload}: rankings_hash {hashes[0]} repeats",
                  flush=True)
    print("smoke test passed")


if __name__ == "__main__":
    main()
