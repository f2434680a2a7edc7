#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark.

Usage (from the root of a checkout):

    python3 perfbench/selftest.py

Checks, in about two minutes on 4 cores:
  * the comparator's verdicts on synthetic result sets;
  * that run.py refuses a directory holding only BENCHMARK.json and
    perfbench/ (no sources), without printing a result;
  * for every workload, an untraced and a traced 1-second run: exit code
    0, the correctness gate passes (failed == 0), every metric
    BENCHMARK.json names for the mode is emitted with its unit, and the
    result file carries the full fingerprint.
Exits non-zero on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402

FINGERPRINT_KEYS = {"nproc", "compiler", "compiler_version", "build_type",
                    "commit", "seed", "workload", "trace"}


def fail(message):
    print(f"selftest: FAIL: {message}")
    sys.exit(1)


def test_comparator():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    noisy = [5.0, 15.0, 7.0, 13.0, 9.0, 11.0, 6.0, 14.0, 8.0, 12.0]
    cases = [
        (parent, faster, "lower", "improved"),
        (parent, slower, "lower", "worse"),
        (parent, list(parent), "lower", "unchanged"),
        (noisy, [v * 1.05 for v in noisy], "lower", "unresolved"),
        (parent, faster, "higher", "worse"),
    ]
    for ps, cs, better, expected in cases:
        got, _ = compare.verdict(ps, cs, better, 0.1)
        if got != expected:
            fail(f"comparator said {got}, expected {expected}")
    # Ten runs at one repeated seed: each parent run pairs with its own
    # change run, not all with the last one.
    pairs = compare.pair([(7, {"x": v}) for v in parent],
                         [(7, {"x": v}) for v in faster])
    if [(p["x"], c["x"]) for p, c in pairs] != list(zip(parent, faster)):
        fail("comparator mispaired runs of a repeated seed")
    print("selftest: comparator verdicts ok")


def test_bare_directory():
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        path = os.path.join(HERE, name)
        if os.path.isfile(path):
            shutil.copy(path, os.path.join(bare, "perfbench"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "descent", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("run.py did not refuse a directory without sources")
    print("selftest: bare directory refused ok")


def run(workload, trace, expected):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        fail(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: correctness gate did not pass")
    for name, unit in expected.items():
        entry = result["metrics"].get(name)
        if entry is None or entry["unit"] != unit:
            fail(f"{workload} trace={trace}: metric {name} [{unit}] not emitted")
    if set(result["metrics"]) != set(expected):
        fail(f"{workload} trace={trace}: unexpected metrics "
             f"{sorted(set(result['metrics']) - set(expected))}")
    stem = f"{workload}-seed7-trace{trace}-"
    files = sorted((os.path.join(HERE, "out", f) for f in os.listdir(os.path.join(HERE, "out"))
                    if f.startswith(stem) and not f.endswith(".trace.json")),
                   key=os.path.getmtime)
    with open(files[-1]) as handle:
        fingerprint = json.load(handle)["fingerprint"]
    missing = FINGERPRINT_KEYS - set(fingerprint)
    if missing:
        fail(f"{workload}: fingerprint lacks {sorted(missing)}")
    print(f"selftest: {workload} trace={trace} ok ({len(expected)} metrics)")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        catalogue = json.load(handle)
    test_comparator()
    test_bare_directory()
    for workload in (w["name"] for w in catalogue["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            run(workload, trace, {m["name"]: m["unit"] for m in catalogue[key]})
    print("selftest: all ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
