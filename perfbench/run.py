#!/usr/bin/env python3
"""Build and run one workload of the compiler benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload descent --seed 1 --seconds 30 --trace 0

Builds the driver and the daemon from source (CMake, Release) into
``$CARGO_TARGET_DIR`` or ``.bench_build``, runs the driver, checks that
every metric ``BENCHMARK.json`` names for the mode is present with its
unit, writes a fingerprinted result file under ``perfbench/out/`` and
prints one JSON object as the last line of stdout. Exits non-zero when
a correctness check failed or the checkout cannot be built.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(message):
    print(f"[run.py] {message}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(out_dir):
    """Configure once, then build the driver and the daemon."""
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out_dir, "-j", "4", "--target",
         "perfbench_driver", "fermihedrald"],
        check=True, stdout=sys.stderr)


def cmake_cache(out_dir, key):
    try:
        with open(os.path.join(out_dir, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_commit():
    """The git commit when available, else a digest of the sources."""
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        digest = hashlib.sha256()
        for top in ("src", "tools", "perfbench"):
            for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
                dirnames[:] = sorted(d for d in dirnames if d != "out")
                for name in sorted(filenames):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
        return "sources-sha256:" + digest.hexdigest()[:16]


def fingerprint(out_dir, args):
    compiler = cmake_cache(out_dir, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "compiler": compiler,
        "compiler_version": version,
        "build_type": cmake_cache(out_dir, "CMAKE_BUILD_TYPE"),
        "commit": source_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        catalogue = json.load(handle)
    return {m["name"]: m["unit"]
            for m in catalogue["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["descent", "noisy-sim"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", os.path.join("src", "api", "compiler.h"),
                   os.path.join("tools", "fermihedrald.cpp"), "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"not a fermihedral checkout: {needed} is missing")
            return 2

    out_dir = build_dir()
    try:
        build(out_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 2

    results = os.path.join(HERE, "out")
    os.makedirs(results, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = os.path.relpath(os.path.join(out_dir, "run-" + str(os.getpid())), ROOT)
    command = [
        os.path.join(out_dir, "perfbench_driver"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--daemon", os.path.join(out_dir, "fermihedral", "fermihedrald"),
        "--work-dir", work,
    ]
    if args.trace:
        command += ["--trace-file", os.path.join(results, stem + ".trace.json")]
    # The driver runs from the checkout root so its unix socket path
    # stays short. It gets its own process group: on a timeout the
    # group (driver and daemon) is killed and reaped.
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("driver timed out")
        return 2
    shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    lines = [line for line in stdout.splitlines() if line.strip()]
    try:
        driver = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"driver exited with {proc.returncode} and no result")
        return 2

    problems = list(driver["failures"])
    metrics = {}
    for name, unit in expected_metrics(args.trace).items():
        entry = driver["metrics"].get(name)
        if entry is None:
            problems.append(f"metric {name} missing")
        elif entry["unit"] != unit:
            problems.append(f"metric {name} has unit {entry['unit']}, not {unit}")
        elif entry["value"] is None or not math.isfinite(entry["value"]):
            problems.append(f"metric {name} is not finite")
        else:
            metrics[name] = {"value": entry["value"], "unit": unit}
    failed = driver["failed"] + (len(problems) - len(driver["failures"]))
    correct = proc.returncode == 0 and failed == 0
    for problem in problems:
        log(f"check failed: {problem}")

    record = {
        "fingerprint": fingerprint(out_dir, args),
        "correct": correct,
        "attempted": driver["attempted"],
        "failed": failed,
        "failures": problems,
        "metrics": metrics,
        "all_metrics": driver["metrics"],
    }
    with open(os.path.join(results, stem + ".json"), "w") as handle:
        json.dump(record, handle, indent=1)

    print(json.dumps({"correct": correct, "attempted": driver["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
