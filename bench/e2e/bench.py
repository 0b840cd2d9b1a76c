#!/usr/bin/env python3
"""Builds wishbone_e2e from this checkout and runs one workload once.

    python3 bench/e2e/bench.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

The build (CMake, Release) goes to bench/e2e/build and is reused by
later runs; a lock keeps concurrent runs from building at once. Build
output and the run's summary go to stderr. The last line of stdout is
the benchmark's JSON result; nothing is printed there if the build or
the run fails, and the exit code is then non-zero.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD = HERE / "build"
OUT = HERE / "out"
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kw):
    """Runs cmd, killing and reaping it if it outlives `timeout`."""
    with subprocess.Popen(cmd, **kw) as p:
        try:
            out, _ = p.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            p.kill()
            p.communicate()
            raise
        return p.returncode, out


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            code, _ = run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
            if code != 0:
                # Leave no half-configured tree behind for the next run.
                shutil.rmtree(BUILD, ignore_errors=True)
                return False
        code, _ = run(["cmake", "--build", str(BUILD), "-j", jobs],
                      BUILD_TIMEOUT_S, stdout=sys.stderr)
        return code == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        if not build():
            print("bench.py: build failed", file=sys.stderr)
            return 1
        cmd = [str(BUILD / "wishbone_e2e"), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds:g}",
               f"--out={OUT}"]
        if args.trace:
            cmd.append("--trace")
        code, out = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                        text=True)
    except subprocess.TimeoutExpired:
        print("bench.py: timed out", file=sys.stderr)
        return 1
    if code != 0:
        return code
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        print("bench.py: malformed result line", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
